"""Crash recovery on the durable store: kill -9, reopen, resume.

The differential suite from the issue: a :class:`ProcessWeaver` backed
by the SQLite/WAL store loses a shard worker to SIGKILL mid-workload;
the replacement worker reopens the database itself (no dict snapshot
crosses the fork) and the run must finish with a clean verdict from the
referee both streamed (:class:`OnlineChecker` on the tracer) and at end
of run (:class:`HistoryChecker` over the retained :class:`History`),
with matching digests across the recovery epoch boundary.
"""

import pytest

from repro.cluster.process import ProcessWeaver
from repro.db import WeaverConfig
from repro.programs.library import GetNode
from repro.verify.history import History, HistoryChecker, decided_order
from repro.verify.online import OnlineChecker
from repro.workloads.chaos import ProcessClient, SoakReport, run_soak


@pytest.fixture
def sqlite_config(tmp_path):
    return WeaverConfig(
        num_shards=2,
        num_gatekeepers=2,
        store_backend="sqlite",
        store_path=str(tmp_path / "weaver.db"),
        store_cache_bytes=1 << 20,
    )


class TestKillNineReopenResume:
    def test_worker_kill_recovers_from_database(self, sqlite_config):
        history = History()
        report = SoakReport(seed=41, transport="process")

        with ProcessWeaver(sqlite_config) as db:
            history.attach(db.tracer)
            checker = OnlineChecker(
                decided_order(db.oracle), registry=db.metrics
            )
            checker.attach(db.tracer)
            # The soak's own refereed client: same tagged writes, same
            # txn.commit / program.read spans.
            client = ProcessClient(db, report, 10, 0.8, seed=41)
            client.setup()

            def mix(rounds):
                for i in range(rounds):
                    client.write()
                    if i % 3 == 2:
                        client.read()

            mix(12)
            db.kill_shard_worker(0)
            db.recover_shard(0)
            mix(12)
            db.drain()
            # Reads that cross the epoch boundary: every vertex, both
            # partitions, after the replacement reopened the database.
            for vertex in client.vertices:
                client.read(vertex)

            assert db.recoveries == 1
            online_violations = checker.finalize()
            offline = HistoryChecker(history, decided_order(db.oracle))
            offline_violations = offline.check()
            online_digest = checker.digest()

        assert offline_violations == [], "\n".join(
            str(v) for v in offline_violations
        )
        assert online_violations == [], "\n".join(
            str(v) for v in online_violations
        )
        # Digest parity across the recovery epoch boundary: the streamed
        # referee and the plain History saw the same record multiset.
        assert online_digest == history.digest()
        assert len(history.commits) >= 25
        assert len(history.reads) >= 10

    def test_recovered_worker_serves_pre_crash_writes(self, sqlite_config):
        """The reopened partition is the pre-crash one: a value written
        before the kill is read after recovery with no re-write."""
        with ProcessWeaver(sqlite_config) as db:
            tx = db.begin_transaction()
            tx.create_vertex("a")
            tx.set_property("a", "w", 7)
            tx.commit()
            tx = db.begin_transaction()
            tx.create_vertex("b")
            tx.set_property("b", "w", 8)
            tx.commit()
            db.drain()
            shard_of_a = db._shard_of("a")
            db.kill_shard_worker(shard_of_a)
            db.recover_shard(shard_of_a)
            result = db.run_program(GetNode(), "a")
            assert result.value["properties"]["w"] == 7
            result = db.run_program(GetNode(), "b")
            assert result.value["properties"]["w"] == 8


class TestSqliteSoak:
    """Acceptance: the soak passes the referee, pruned and (the
    ``soak_twin`` fixture) unpruned, on the durable store with a dataset
    larger than the configured page-cache budget."""

    def test_process_soak_on_sqlite_with_tiny_cache(self, soak_twin):
        report = run_soak(
            seed=5,
            transport="process",
            chunks=6,
            num_vertices=16,
            crash_every=3,
            store="sqlite",
            store_cache_bytes=2048,
        )
        assert report.store == "sqlite"
        assert report.ok, report.violations
        assert soak_twin["twin"].digest() == report.digest
        assert soak_twin["twin"].finalize() == []
        assert report.recoveries >= 1
        assert report.committed > 0
        # Dataset larger than the cache budget: the store actually paged.
        assert report.metrics.get("store.page_cache_evictions", 0) > 0
        assert report.metrics.get("store.commits", 0) > 0

    def test_sim_soak_on_sqlite(self):
        report = run_soak(
            seed=9,
            transport="sim",
            chunks=2,
            store="sqlite",
            store_cache_bytes=4096,
        )
        assert report.store == "sqlite"
        assert report.ok
        assert report.metrics.get("store.commits", 0) > 0
