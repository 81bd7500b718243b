"""The SQLite/WAL durable store: persistence, paging, crash survival.

Contract parity with the in-memory store is covered by the
backend-parametrized suite in ``test_store.py``; this file tests what
only the durable backend promises — state survives close/reopen and
``kill -9``, the page cache honors its byte budget, and compaction
reclaims rows in the database itself.
"""

import multiprocessing
import os
import shutil
import time

import pytest

from repro.core.vclock import VectorTimestamp
from repro.db import Weaver, WeaverClient, WeaverConfig
from repro.errors import StoreError
from repro.store.durable import DurableStore


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "store.db")


class TestReopen:
    def test_values_and_deletes_survive_reopen(self, db_path):
        with DurableStore(db_path) as store:
            store.transact(lambda t: (t.put("a", 1), t.put("b", [2, 3])))
            store.transact(lambda t: t.delete("b"))
        with DurableStore(db_path) as store:
            assert store.get("a") == 1
            assert store.get("b") is None
            assert list(store.keys()) == ["a"]

    def test_commit_counter_survives_reopen(self, db_path):
        """Regression (the snapshot/restore counter bug, durably): a
        reopened store must not mint commit versions the pre-crash
        incarnation already used."""
        with DurableStore(db_path) as store:
            for i in range(5):
                store.transact(lambda t, i=i: t.put("k", i))
            pre = store.version
        with DurableStore(db_path) as store:
            assert store.version == pre
            store.transact(lambda t: t.put("k", 99))
            assert store.version == pre + 1

    def test_version_chains_survive_reopen(self, db_path):
        with DurableStore(db_path) as store:
            store.transact(lambda t: t.put("k", "old"))
            v = store.version
            store.transact(lambda t: t.put("k", "new"))
        with DurableStore(db_path) as store:
            assert store.read_at("k", v) == (True, "old")
            assert store.get("k") == "new"

    def test_complex_values_roundtrip(self, db_path):
        ts = VectorTimestamp(0, (3, 1), 0)
        with DurableStore(db_path) as store:
            store.transact(lambda t: t.put("ts", ts))
            store.transact(lambda t: t.put("nested", {"a": [1, (2, 3)]}))
        with DurableStore(db_path) as store:
            assert store.get("ts") == ts
            assert store.get("nested") == {"a": [1, (2, 3)]}

    def test_read_only_open(self, db_path):
        with DurableStore(db_path) as store:
            store.transact(lambda t: t.put("a", 1))
        with DurableStore(db_path, read_only=True) as ro:
            assert ro.get("a") == 1
            assert ro.version == 1
            with pytest.raises((StoreError, Exception)):
                ro.transact(lambda t: t.put("b", 2))

    def test_wal_checkpoint_moves_commits_into_the_main_file(
        self, db_path, tmp_path
    ):
        """What ProcessWeaver.recover_shard relies on before it forks a
        replacement worker: after the checkpoint the commits are in the
        database file itself, not only in the WAL beside it — with the
        writer still open."""
        with DurableStore(db_path) as store:
            for i in range(20):
                store.transact(lambda t, i=i: t.put(f"k{i}", i))
            store.wal_checkpoint()
            main_file_only = str(tmp_path / "copy.db")
            shutil.copy(db_path, main_file_only)
            with DurableStore(main_file_only) as copy:
                assert copy.get("k19") == 19
                assert copy.version == store.version


class TestPageCache:
    def test_budget_bounds_resident_bytes(self, db_path):
        budget = 4096
        with DurableStore(db_path, cache_bytes=budget) as store:
            for i in range(200):
                store.transact(lambda t, i=i: t.put(f"k{i}", "x" * 100))
            for i in range(200):
                assert store.get(f"k{i}") == "x" * 100
            assert store.stats.page_cache_evictions > 0
            assert store._cache_size <= budget or len(store._cache) == 1
            assert store.stats.page_cache_bytes == store._cache_size

    def test_hits_on_hot_keys(self, db_path):
        with DurableStore(db_path) as store:
            store.transact(lambda t: t.put("hot", 1))
            store.get("hot")  # miss: first load after the write
            before = store.stats.page_cache_hits
            for _ in range(5):
                store.get("hot")
            assert store.stats.page_cache_hits == before + 5

    def test_zero_budget_disables_caching(self, db_path):
        with DurableStore(db_path, cache_bytes=0) as store:
            store.transact(lambda t: t.put("k", 1))
            for _ in range(3):
                assert store.get("k") == 1
            assert store.stats.page_cache_hits == 0
            assert store.stats.page_cache_misses == 3
            assert store._cache_size == 0

    def test_dataset_larger_than_budget_reads_correctly(self, db_path):
        """The larger-than-RAM regime: every key still reads back right
        while the resident set stays bounded."""
        budget = 2048
        n = 300
        with DurableStore(db_path, cache_bytes=budget) as store:
            for i in range(n):
                store.transact(lambda t, i=i: t.put(f"k{i}", f"value-{i}"))
            total = store._conn.execute(
                "SELECT SUM(LENGTH(value)) FROM records"
            ).fetchone()[0]
            assert total > budget  # the premise: data exceeds the cache
            for i in range(n):
                assert store.get(f"k{i}") == f"value-{i}"


class TestCompaction:
    def test_superseded_rows_deleted(self, db_path):
        with DurableStore(db_path) as store:
            for i in range(10):
                store.transact(lambda t, i=i: t.put("k", i))
            reclaimed = store.collect_below(store.version)
            assert reclaimed == 9
            rows = store._conn.execute(
                "SELECT COUNT(*) FROM records WHERE key = 'k'"
            ).fetchone()[0]
            assert rows == 1
            assert store.get("k") == 9

    def test_lone_tombstones_purged(self, db_path):
        with DurableStore(db_path) as store:
            store.transact(lambda t: t.put("gone", 1))
            store.transact(lambda t: t.delete("gone"))
            store.transact(lambda t: t.put("keep", 2))
            store.collect_below(store.version)
            rows = store._conn.execute(
                "SELECT key FROM records"
            ).fetchall()
            assert rows == [("keep",)]
            assert store.stats.tombstones_purged == 1

    def test_cache_coherent_after_compaction(self, db_path):
        with DurableStore(db_path) as store:
            for i in range(5):
                store.transact(lambda t, i=i: t.put("k", i))
            store.get("k")  # chain now cached, 5 records long
            store.collect_below(store.version)
            assert store.get("k") == 4  # served from the trimmed cache
            chain = store._cache.get("k")
            assert chain is not None and len(chain) == 1

    def test_compaction_respects_watermark(self, db_path):
        with DurableStore(db_path) as store:
            store.transact(lambda t: t.put("k", "a"))
            v1 = store.version
            store.transact(lambda t: t.put("k", "b"))
            store.transact(lambda t: t.put("k", "c"))
            store.collect_below(v1)
            # Nothing below v1 is superseded-by-v1, so reads at v1 and
            # above are all intact.
            assert store.read_at("k", v1) == (True, "a")
            assert store.get("k") == "c"

    def test_gc_compacts_synchronously(self):
        db = Weaver(WeaverConfig(store_backend="sqlite"))
        client = WeaverClient(db)
        v = client.create_vertex()
        for i in range(6):
            client.set_property(v, "n", i)
        report = db.collect_garbage()
        assert report["store"] > 0


def _hammer(path: str) -> None:
    """Child process: commit pairs forever until killed.

    Each transaction writes the same value to both keys, so atomicity
    is observable after the kill: a torn commit would leave x != y.
    """
    store = DurableStore(path)
    i = 0
    while True:
        i += 1
        store.transact(lambda t, i=i: (t.put("x", i), t.put("y", i)))


class TestKillNine:
    def test_state_survives_sigkill_of_writer(self, db_path):
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_hammer, args=(db_path,), daemon=True)
        proc.start()
        deadline = time.monotonic() + 10.0
        # Let the child commit for a while (but demand progress first so
        # the post-mortem assertions are non-vacuous).
        while time.monotonic() < deadline:
            if os.path.exists(db_path):
                try:
                    with DurableStore(db_path, read_only=True) as peek:
                        if (peek.get("x") or 0) >= 20:
                            break
                except Exception:
                    pass
            time.sleep(0.01)
        proc.kill()
        proc.join(timeout=10)

        with DurableStore(db_path) as store:
            x, y = store.get("x"), store.get("y")
            # Atomicity across the kill: both keys carry the same
            # transaction's value, never a torn pair.
            assert x == y
            assert x >= 20
            # The persisted counter equals the newest committed version.
            head = store._conn.execute(
                "SELECT MAX(version) FROM records"
            ).fetchone()[0]
            assert store.version == head
            # And the store resumes: new commits use fresh versions.
            store.transact(lambda t: t.put("x", -1))
            assert store.version == head + 1
