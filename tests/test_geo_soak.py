"""Satellite: the chunked soak transplanted into the geo cluster.

``run_geo_soak`` drives :func:`~repro.workloads.chaos.run_soak`-style
chunked Zipf traffic across two regions while the chaos layer injects
message faults, per-chunk server crashes, and a full region partition
across the middle chunks.  The referee runs throughout, settling on the
live GC watermarks; the ``soak_twin`` fixture holds an unpruned twin of
it to the same digest after every span — on the simulator (where
deadline-delayed acks make the evidence cache carry store versions
across GC ticks) and on the real multiprocess transport.
"""

from repro.workloads.geo import run_geo_soak


class TestGeoSoakSim:
    def test_soak_with_crashes_and_region_partition(self, soak_twin):
        report = run_geo_soak(3, transport="sim", chunks=4)
        assert report.ok, report.violations
        # The chaos actually happened: servers died and recovered while
        # regions 0 and 1 were partitioned across the middle chunks.
        assert report.recoveries >= 1
        assert report.metrics.get("network.faults.partition", 0) > 0
        # Watermarks never changed the digest, on any prefix, and the
        # unpruned twin's own end-of-run verdict is clean too.
        assert soak_twin["withheld"] == report.watermarks > 0
        assert soak_twin["prefixes"] > report.committed
        assert soak_twin["twin"].digest() == report.digest
        assert soak_twin["twin"].finalize() == []
        assert report.metrics["checker.evidence_hits"] > 0
        assert report.committed > 0
        assert report.reads_completed > 0

    def test_soak_is_deterministic_per_seed(self):
        first = run_geo_soak(5, transport="sim", chunks=2)
        second = run_geo_soak(5, transport="sim", chunks=2)
        assert first.ok and second.ok
        assert first.digest == second.digest
        assert first.committed == second.committed


class TestGeoSoakProcess:
    def test_soak_on_the_process_transport(self, soak_twin):
        report = run_geo_soak(3, transport="process", chunks=4)
        assert report.ok, report.violations
        assert report.recoveries >= 1
        assert soak_twin["twin"].digest() == report.digest
        assert soak_twin["twin"].finalize() == []
