"""The transactional backing store: MVCC cells and OCC transactions.

Every transaction/utility test runs against all three backends — the
in-memory :class:`TransactionalStore`, the replicated
:class:`DistributedStore` and the SQLite-backed :class:`DurableStore` —
via the ``store`` fixture: they share one commit body and differ only in
where a key's cell lives, so the same assertions must hold.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StoreError, TransactionAborted, TransactionError
from repro.store.distributed import DistributedStore
from repro.store.durable import DurableStore
from repro.store.kvstore import META_COMMIT_VERSION, TransactionalStore
from repro.store.versioned import VersionedCell

BACKENDS = ("memory", "sqlite", "distributed")


def make_store(backend, **kwargs):
    if backend == "sqlite":
        return DurableStore(":memory:", **kwargs)
    if backend == "distributed":
        return DistributedStore(4, 2, **kwargs)
    return TransactionalStore(**kwargs)


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def store(backend):
    s = make_store(backend)
    yield s
    if hasattr(s, "close"):
        s.close()


class TestVersionedCell:
    def test_empty_cell_reads_missing(self):
        cell = VersionedCell()
        assert cell.read() == (False, None, 0)

    def test_write_and_read_latest(self):
        cell = VersionedCell()
        cell.write(1, "a")
        cell.write(3, "b")
        assert cell.read() == (True, "b", 3)

    def test_snapshot_read_picks_correct_version(self):
        cell = VersionedCell()
        cell.write(1, "a")
        cell.write(3, "b")
        assert cell.read(2) == (True, "a", 1)

    def test_snapshot_before_first_write_is_missing(self):
        cell = VersionedCell()
        cell.write(5, "a")
        assert cell.read(4) == (False, None, 0)

    def test_tombstone_hides_value(self):
        cell = VersionedCell()
        cell.write(1, "a")
        cell.delete(2)
        exists, value, version = cell.read()
        assert not exists and version == 2

    def test_read_before_tombstone_sees_value(self):
        cell = VersionedCell()
        cell.write(1, "a")
        cell.delete(2)
        assert cell.read(1) == (True, "a", 1)

    def test_versions_must_increase(self):
        cell = VersionedCell()
        cell.write(2, "a")
        with pytest.raises(ValueError):
            cell.write(2, "b")

    def test_latest_version(self):
        cell = VersionedCell()
        assert cell.latest_version == 0
        cell.write(7, "x")
        assert cell.latest_version == 7

    def test_collect_below_keeps_newest_at_or_below(self):
        cell = VersionedCell()
        for v in (1, 2, 3, 4):
            cell.write(v, f"v{v}")
        dropped = cell.collect_below(3)
        assert dropped == 2
        assert cell.read(3) == (True, "v3", 3)
        assert cell.read() == (True, "v4", 4)

    def test_collect_below_noop_when_single(self):
        cell = VersionedCell()
        cell.write(1, "a")
        assert cell.collect_below(5) == 0

    def test_collect_below_purges_lone_tombstone(self):
        cell = VersionedCell()
        cell.write(1, "a")
        cell.delete(2)
        dropped = cell.collect_below(5)
        # Both the superseded value and the now-lone tombstone go: reads
        # at or above the watermark answer "missing" either way.
        assert dropped == 2
        assert len(cell) == 0
        assert cell.read(5) == (False, None, 0)

    def test_collect_below_keeps_tombstone_with_newer_record(self):
        cell = VersionedCell()
        cell.write(1, "a")
        cell.delete(2)
        cell.write(3, "b")
        cell.collect_below(2)
        assert cell.read(2) == (False, None, 2)  # tombstone survives
        assert cell.read() == (True, "b", 3)

    def test_collect_below_keeps_tombstone_above_watermark(self):
        cell = VersionedCell()
        cell.write(1, "a")
        cell.delete(5)
        assert cell.collect_below(3) == 0
        assert cell.read(4) == (True, "a", 1)

    def test_history(self):
        cell = VersionedCell()
        cell.write(1, "a")
        cell.delete(2)
        assert cell.history() == [(1, True, "a"), (2, False, None)]


class TestTransactions:
    def test_put_get_commit(self, store):
        tx = store.begin()
        tx.put("k", 1)
        assert tx.get("k") == 1  # read-your-writes
        tx.commit()
        assert store.get("k") == 1

    def test_uncommitted_writes_invisible(self, store):
        tx = store.begin()
        tx.put("k", 1)
        assert store.get("k") is None

    def test_delete_in_tx(self, store):
        store.transact(lambda t: t.put("k", 1))
        tx = store.begin()
        tx.delete("k")
        assert tx.get("k") is None
        assert not tx.exists("k")
        tx.commit()
        assert not store.exists("k")

    def test_write_then_delete_then_write(self, store):
        tx = store.begin()
        tx.put("k", 1)
        tx.delete("k")
        tx.put("k", 2)
        tx.commit()
        assert store.get("k") == 2

    def test_snapshot_isolation_of_reads(self, store):
        store.transact(lambda t: t.put("k", 1))
        tx = store.begin()
        assert tx.get("k") == 1
        store.transact(lambda t: t.put("other", 9))
        # Reads stay at the snapshot even as other keys move on.
        assert tx.get("k") == 1

    def test_read_conflict_aborts(self, store):
        store.transact(lambda t: t.put("k", 1))
        tx = store.begin()
        tx.get("k")
        store.transact(lambda t: t.put("k", 2))
        tx.put("unrelated", 1)
        with pytest.raises(TransactionAborted):
            tx.commit()
        assert store.stats.aborts == 1

    def test_write_write_conflict_aborts(self, store):
        tx = store.begin()
        tx.put("k", "mine")
        store.transact(lambda t: t.put("k", "theirs"))
        with pytest.raises(TransactionAborted):
            tx.commit()

    def test_blind_writes_to_distinct_keys_both_commit(self, store):
        tx1 = store.begin()
        tx2 = store.begin()
        tx1.put("a", 1)
        tx2.put("b", 2)
        tx1.commit()
        tx2.commit()
        assert store.get("a") == 1 and store.get("b") == 2

    def test_first_committer_wins(self, store):
        tx1 = store.begin()
        tx2 = store.begin()
        tx1.put("k", 1)
        tx2.put("k", 2)
        tx1.commit()
        with pytest.raises(TransactionAborted):
            tx2.commit()
        assert store.get("k") == 1

    def test_use_after_commit_raises(self, store):
        tx = store.begin()
        tx.commit()
        with pytest.raises(TransactionError):
            tx.put("k", 1)

    def test_use_after_abort_raises(self, store):
        tx = store.begin()
        tx.abort()
        with pytest.raises(TransactionError):
            tx.get("k")

    def test_read_and_write_sets(self, store):
        tx = store.begin()
        tx.get("r")
        tx.put("w", 1)
        tx.delete("d")
        assert tx.read_set == {"r"}
        assert tx.write_set == {"w", "d"}

    def test_transact_retries_until_success(self, store):
        store.transact(lambda t: t.put("k", 0))
        attempts = []

        def bump(tx):
            value = tx.get("k")
            if not attempts:
                # Sabotage the first attempt with a conflicting commit.
                store.transact(lambda t: t.put("k", value + 10))
            attempts.append(value)
            tx.put("k", value + 1)

        store.transact(bump)
        assert store.get("k") == 11
        assert len(attempts) == 2
        assert store.stats.retries == 1

    def test_transact_gives_up_after_retries(self, store):
        store.transact(lambda t: t.put("k", 0))

        def always_conflicts(tx):
            tx.get("k")
            store.transact(lambda t: t.put("k", t.get("k") or 0))
            tx.put("k", 1)

        with pytest.raises(TransactionAborted):
            store.transact(always_conflicts, retries=3)

    def test_commit_version_monotonic(self, store):
        v1 = store.transact(lambda t: t.put("a", 1)) or store.version
        store.transact(lambda t: t.put("b", 2))
        assert store.version > v1 - 1


class TestTransactRetryHygiene:
    """The PR-3 client fixes, mirrored at the store layer: a failed
    ``transact`` must not leak an open transaction, and conflict retries
    must back off with jitter instead of re-colliding in lockstep."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unexpected_exception_aborts_open_tx(self, backend):
        store = make_store(backend)

        def explode(tx):
            tx.put("k", 1)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            store.transact(explode)
        # The transaction was aborted on the way out: its snapshot pin
        # is released, so compaction is not blocked forever.
        assert store._open_snapshots == {}
        assert store.get("k") is None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_conflict_retries_release_snapshots(self, backend):
        store = make_store(backend)
        store.transact(lambda t: t.put("k", 0))

        def always_conflicts(tx):
            tx.get("k")
            store.transact(lambda t: t.put("k", (t.get("k") or 0) + 1))
            tx.put("k", -1)

        with pytest.raises(TransactionAborted):
            store.transact(always_conflicts, retries=3)
        assert store._open_snapshots == {}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_retries_backoff_with_jitter(self, backend):
        sleeps = []

        class Rng:
            def random(self):
                return 0.5

        store = make_store(backend, sleep=sleeps.append, rng=Rng())
        store.transact(lambda t: t.put("k", 0))

        def always_conflicts(tx):
            tx.get("k")
            store.transact(lambda t: t.put("k", (t.get("k") or 0) + 1))
            tx.put("k", -1)

        with pytest.raises(TransactionAborted):
            store.transact(always_conflicts, retries=4)
        # One sleep per retry (not before the first attempt), capped,
        # exponentially growing ceilings, scaled by the rng draw.
        assert len(sleeps) == 3
        assert sleeps == sorted(sleeps)
        assert all(0 < s <= 0.05 for s in sleeps)
        assert store.stats.retries == 3

    def test_first_attempt_never_sleeps(self):
        sleeps = []
        store = TransactionalStore(sleep=sleeps.append)
        store.transact(lambda t: t.put("k", 1))
        assert sleeps == []
        assert store.stats.retries == 0


class TestStoreUtilities:
    def test_keys_prefix_filter(self, store):
        store.transact(lambda t: (t.put("v:a", 1), t.put("e:x", 2)))
        assert list(store.keys("v:")) == ["v:a"]

    def test_keys_excludes_deleted(self, store):
        store.transact(lambda t: t.put("k", 1))
        store.transact(lambda t: t.delete("k"))
        assert list(store.keys()) == []

    def test_read_at_historical_version(self, store):
        store.transact(lambda t: t.put("k", "old"))
        v = store.version
        store.transact(lambda t: t.put("k", "new"))
        assert store.read_at("k", v) == (True, "old")

    def test_snapshot_and_restore(self, store, backend):
        store.transact(lambda t: (t.put("a", 1), t.put("b", 2)))
        store.transact(lambda t: t.delete("b"))
        snap = store.snapshot()
        assert snap == {"a": 1, META_COMMIT_VERSION: 2}
        fresh = make_store(backend)
        fresh.restore(snap)
        assert fresh.get("a") == 1

    def test_restore_requires_empty(self, store):
        store.transact(lambda t: t.put("a", 1))
        with pytest.raises(StoreError):
            store.restore({"b": 2})

    def test_restore_resumes_commit_counter(self, store, backend):
        """Regression: snapshot()/restore() used to drop the commit
        counter, so a recovered store reused pre-crash commit versions —
        corrupting everything keyed on them (checker digest joins)."""
        for i in range(5):
            store.transact(lambda t, i=i: t.put("k", i))
        pre_crash = store.version
        assert pre_crash == 5
        fresh = make_store(backend)
        fresh.restore(store.snapshot())
        versions = [fresh.version]
        for i in range(3):
            fresh.transact(lambda t, i=i: t.put("k", 10 + i))
            versions.append(fresh.version)
        # Strictly increasing, and never dipping back into pre-crash
        # territory.
        assert versions == sorted(set(versions))
        assert all(v > pre_crash for v in versions)

    def test_collect_below_reclaims_versions(self, store):
        for i in range(5):
            store.transact(lambda t, i=i: t.put("k", i))
        reclaimed = store.collect_below(store.version)
        assert reclaimed == 4
        assert store.get("k") == 4
        assert store.stats.records_collected == 4
        assert store.stats.compactions == 1

    def test_collect_below_purges_deleted_keys(self, store, backend):
        """Regression: create/delete churn used to leak — the lone
        tombstone (and the cell holding it) survived every collection."""
        for i in range(10):
            store.transact(lambda t, i=i: t.put(f"churn{i}", "x"))
            store.transact(lambda t, i=i: t.delete(f"churn{i}"))
        store.transact(lambda t: t.put("keep", 1))
        store.collect_below(store.safe_compact_version())
        assert list(store.keys()) == ["keep"]
        assert store.stats.tombstones_purged == 10
        if backend == "memory":
            assert set(store._cells) == {"keep"}
        elif backend == "distributed":
            assert all(set(node.cells) <= {"keep"} for node in store.nodes)
        else:
            rows = store._conn.execute(
                "SELECT COUNT(*) FROM records"
            ).fetchone()[0]
            assert rows == 1

    def test_safe_compact_version_pins_open_snapshots(self, store):
        store.transact(lambda t: t.put("k", 1))
        tx = store.begin()
        snap = tx.snapshot
        store.transact(lambda t: t.put("k", 2))
        assert store.safe_compact_version() == snap
        # The pinned record survives compaction at the safe version.
        store.collect_below(store.safe_compact_version())
        assert tx.get("k") == 1
        tx.abort()
        assert store.safe_compact_version() == store.version


# -- property-based: OCC never loses an update ------------------------------

@pytest.mark.parametrize("store_backend", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.sampled_from(["a", "b"])),
        min_size=1,
        max_size=20,
    )
)
def test_occ_counter_increments_never_lost(store_backend, schedule):
    """Interleaved read-modify-write transactions: every successful
    commit's increment is reflected in the final counter value."""
    store = make_store(store_backend)
    store.transact(lambda t: (t.put("a", 0), t.put("b", 0)))
    open_txs = {}
    successes = {"a": 0, "b": 0}
    for slot, key in schedule:
        if slot not in open_txs:
            tx = store.begin()
            open_txs[slot] = (tx, key, tx.get(key))
        else:
            tx, tx_key, seen = open_txs.pop(slot)
            tx.put(tx_key, seen + 1)
            try:
                tx.commit()
                successes[tx_key] += 1
            except TransactionAborted:
                pass
    for slot, (tx, tx_key, seen) in open_txs.items():
        tx.put(tx_key, seen + 1)
        try:
            tx.commit()
            successes[tx_key] += 1
        except TransactionAborted:
            pass
    assert store.get("a") == successes["a"]
    assert store.get("b") == successes["b"]
    if hasattr(store, "close"):
        store.close()
