"""One record per claim: the ``BENCH_*.json`` files at the repo root.

Each file is written by exactly one module under ``benchmarks/``, so no
claim is recorded twice at two values.  The three timed on the host
(ordering, storage, wire) carry the ``cpu_count`` they were measured
on; the geo sweep runs on simulated time, so its record is the same on
any host and carries none.
"""

import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = ("geo", "ordering", "storage", "wire")
HOST_TIMED = ("ordering", "storage", "wire")


def _record(name):
    return json.loads((REPO_ROOT / f"BENCH_{name}.json").read_text())


def test_the_records_are_exactly_these():
    assert sorted(
        path.name for path in REPO_ROOT.glob("BENCH_*.json")
    ) == [f"BENCH_{name}.json" for name in RECORDS]


@pytest.mark.parametrize("name", RECORDS)
def test_each_record_has_one_writer(name):
    writers = [
        path.name for path in sorted((REPO_ROOT / "benchmarks").glob("*.py"))
        if f"BENCH_{name}.json" in path.read_text()
    ]
    assert len(writers) == 1, writers


@pytest.mark.parametrize("name", HOST_TIMED)
def test_a_host_timed_record_names_its_cores(name):
    assert _record(name)["cpu_count"] >= 1


def test_the_geo_record_is_simulated_time():
    """No host in it: every point is two replayable runs, each pinned by
    its history digest, and nothing names the cores it ran on."""
    record = _record("geo")
    assert "cpu_count" not in record
    assert record["points"]
    for point in record["points"]:
        for run in (point["fastpath"], point["baseline"]):
            assert "cpu_count" not in run
            assert len(run["digest"]) == 64 and run["consistent"]
