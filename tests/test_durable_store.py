"""The SQLite/WAL durable store: persistence, paging, crash survival.

Contract parity with the in-memory store is covered by the
backend-parametrized suite in ``test_store.py``; this file tests what
only the durable backend promises — state survives close/reopen and
``kill -9``, a commit is one SQL transaction the page cache learns only
after ``COMMIT``, a row that does not decode fails by name, the page
cache honors its byte budget, and compaction reclaims rows in the
database itself.
"""

import multiprocessing
import os
import pickle
import shutil
import sqlite3
import time

import pytest

from repro.cluster import wire
from repro.core.vclock import VectorTimestamp
from repro.db import Weaver, WeaverClient, WeaverConfig
from repro.errors import StoreError, TransactionAborted
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


def _rows(store):
    return store._conn.execute(
        "SELECT key, version FROM records ORDER BY key, version"
    ).fetchall()


class TestCommitBracket:
    def test_validation_and_application_share_one_sql_transaction(self):
        with DurableStore() as store:
            store.transact(lambda t: t.put("k", 0))  # "k" is not cached
            statements = []
            store._conn.set_trace_callback(statements.append)
            tx = store.begin()
            tx.put("k", 1)
            tx.commit()
            store._conn.set_trace_callback(None)
        assert statements[0] == "BEGIN IMMEDIATE"
        assert statements[1].startswith("SELECT MAX(version)")
        assert statements[-1] == "COMMIT"
        assert any(s.startswith("INSERT INTO records") for s in statements)

    def test_validation_never_fills_the_cache(self):
        with DurableStore() as store:
            store.transact(lambda t: (t.put("a", 0), t.put("b", 0)))
            misses = store.stats.page_cache_misses
            tx = store.begin()
            tx.put("a", 1)
            tx.delete("b")
            tx.commit()
            assert not store._cache
            assert store.stats.page_cache_misses == misses

    def test_a_conflicting_commit_leaves_counter_and_cache(self):
        with DurableStore() as store:
            store.transact(lambda t: t.put("k", 0))
            tx = store.begin()
            tx.put("k", "loser")
            store.transact(lambda t: t.put("k", "winner"))
            assert store.get("k") == "winner"  # cached from here on
            version, cell = store.version, store._cache["k"]
            before = (len(cell), cell.latest_version, store._cache_size)
            with pytest.raises(TransactionAborted):
                tx.commit()
            assert store.version == version
            assert store._cache["k"] is cell
            assert (len(cell), cell.latest_version,
                    store._cache_size) == before
            assert store.get("k") == "winner"

    def test_a_failed_commit_leaves_rows_counter_and_cache(self):
        """``COMMIT`` itself fails, after every insert ran: the inserts
        roll back, and the cache never learned them."""

        class FailingCommit:
            def __init__(self, conn):
                self.conn = conn

            def execute(self, sql, *args):
                if sql == "COMMIT":
                    raise sqlite3.OperationalError("disk I/O error")
                return self.conn.execute(sql, *args)

            def executemany(self, sql, rows):
                return self.conn.executemany(sql, rows)

        with DurableStore() as store:
            store.transact(lambda t: t.put("k", 0))
            assert store.get("k") == 0
            version, rows = store.version, _rows(store)
            cell, size = store._cache["k"], store._cache_size
            real, store._conn = store._conn, FailingCommit(store._conn)
            with pytest.raises(sqlite3.OperationalError, match="disk I/O"):
                store.transact(lambda t: t.put("k", 1))
            store._conn = real
            assert _rows(store) == rows
            assert store.version == version
            assert len(cell) == 1 and store._cache_size == size
            assert store.get("k") == 0

    def test_a_value_the_codec_refuses_fails_its_commit_by_name(self):
        with DurableStore() as store:
            store.transact(lambda t: t.put("k", 0))
            assert store.get("k") == 0
            version, rows = store.version, _rows(store)
            size = store._cache_size
            with pytest.raises(StoreError, match="value of 'k' cannot be"):
                store.transact(lambda t: (t.put("j", 1), t.put("k", object())))
            assert store.version == version
            assert _rows(store) == rows  # no row written, "j" included
            assert store._cache_size == size
            assert store.get("k") == 0 and store.get("j") is None
            store.transact(lambda t: t.put("k", 1))
            assert store.version == version + 1
            assert store.get("k") == 1


class TestRowsThatDoNotDecode:
    """A stored row is one wire payload.  One that is not — garbage,
    truncated, from another ``WIRE_VERSION``, or a pickle-era file —
    fails its first read by key and version; there is no migration."""

    @pytest.mark.parametrize(
        "blob, reason",
        [
            (bytes((wire.WIRE_VERSION,)) + b"Q", "unknown wire tag"),
            (wire.encode({"a": [1, 2, 3]})[:-3], "wire payload"),
            (bytes((wire.WIRE_VERSION - 1,)) + wire.encode(7)[1:],
             "wire version mismatch"),
            (pickle.dumps({"a": 1}, protocol=5),
             f"got 128, expected {wire.WIRE_VERSION}"),
        ],
        ids=["garbage", "truncated", "older-version", "pickle-era"],
    )
    def test_raises_a_named_error_on_first_read(self, db_path, blob, reason):
        with DurableStore(db_path) as store:
            store._conn.execute(
                "INSERT INTO records (key, version, value, tombstone)"
                " VALUES ('v:a', 1, ?, 0)",
                (blob,),
            )
        with DurableStore(db_path) as store:
            with pytest.raises(StoreError) as raised:
                store.get("v:a")
            assert str(raised.value).startswith(
                "record 'v:a'@1 does not decode: "
            )
            assert reason in str(raised.value)
            assert "v:a" not in store._cache


def _truncate(path):
    with DurableStore(path) as store:
        for i in range(200):
            store.transact(lambda t, i=i: t.put(f"k{i}", "x" * 300))
    size = os.path.getsize(path)
    with open(path, "r+b") as f:
        f.truncate(size // 2)


def _garbage(path):
    with open(path, "wb") as f:
        f.write(b"not a database " * 100)


class TestFilesThatAreNotAStore:
    """A file that is not a whole SQLite database fails its open by path
    with :class:`StoreError`, not a raw ``sqlite3`` error."""

    @pytest.mark.parametrize(
        "damage, reason",
        [
            (_truncate, "database disk image is malformed"),
            (_garbage, "file is not a database"),
        ],
        ids=["truncated", "garbage"],
    )
    def test_open_raises_a_named_error(self, db_path, damage, reason):
        damage(db_path)
        with pytest.raises(StoreError) as raised:
            DurableStore(db_path)
        assert str(raised.value).startswith(
            f"store {db_path!r} cannot be opened: "
        )
        assert reason in str(raised.value)


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
