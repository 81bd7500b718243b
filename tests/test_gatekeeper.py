"""Gatekeepers: stamping, announces, NOPs, and the commit path."""

import pytest

from repro.core.gatekeeper import (
    DeadlineStamper,
    Gatekeeper,
    sync_announce_all,
)
from repro.core.vclock import Ordering, VectorTimestamp
from repro.errors import TransactionAborted
from repro.store.kvstore import TransactionalStore


class TestStamping:
    def test_issue_increments_stats(self):
        gk = Gatekeeper(0, 2)
        gk.issue_timestamp()
        assert gk.stats.timestamps_issued == 1

    def test_stamps_strictly_increase(self):
        gk = Gatekeeper(0, 2)
        a, b = gk.issue_timestamp(), gk.issue_timestamp()
        assert a.compare(b) is Ordering.BEFORE

    def test_stamp_carries_issuer(self):
        gk = Gatekeeper(1, 3)
        assert gk.issue_timestamp().issuer == 1

    def test_watermark_not_counted_as_issue(self):
        gk = Gatekeeper(0, 2)
        gk.current_watermark()
        assert gk.stats.timestamps_issued == 0


class TestAnnounces:
    def test_sync_announce_orders_prior_stamps(self):
        gks = [Gatekeeper(i, 2) for i in range(2)]
        early = gks[0].issue_timestamp()
        sync_announce_all(gks)
        late = gks[1].issue_timestamp()
        assert early.compare(late) is Ordering.BEFORE

    def test_without_announce_cross_gk_stamps_concurrent(self):
        gks = [Gatekeeper(i, 2) for i in range(2)]
        a = gks[0].issue_timestamp()
        b = gks[1].issue_timestamp()
        assert a.compare(b) is Ordering.CONCURRENT

    def test_announce_counters(self):
        gks = [Gatekeeper(i, 3) for i in range(3)]
        sync_announce_all(gks)
        for gk in gks:
            assert gk.stats.announces_sent == 1
            assert gk.stats.announces_received == 2

    def test_a_nop_advances_the_clock(self):
        gk = Gatekeeper(0, 1)
        nop = gk.make_nop()
        assert nop.local_clock == 1
        assert gk.stats.nops_sent == 1


class TestCommit:
    """One commit body, ``commit_prepared``; ``commit`` opens the store
    transaction and hands it over."""

    def make_gk(self):
        store = TransactionalStore()
        return Gatekeeper(0, 2, store), store

    @staticmethod
    def prepared(store, value=1):
        tx = store.begin()
        tx.put("k", value)
        return tx

    def test_commit_prepared_writes_and_stamps(self):
        gk, store = self.make_gk()
        ts = gk.commit_prepared(self.prepared(store), ["v1"])
        assert store.get("k") == 1
        assert store.get("__lastup__:v1") == ts
        assert gk.stats.commits == 1

    def test_commit_applies_then_commits_prepared(self):
        gk, store = self.make_gk()
        ts = gk.commit(lambda tx: tx.put("k", "v"), touched_vertices=["v1"])
        assert store.get("k") == "v"
        assert store.get("__lastup__:v1") == ts
        assert gk.stats.commits == 1

    def test_occ_conflict_on_last_update_aborts(self):
        # Two committers to one vertex: the second read the last-update
        # stamp the first overwrote, so the store refuses it.
        gk, store = self.make_gk()
        first, second = self.prepared(store), self.prepared(store, 2)
        gk.commit_prepared(first, ["v1"])
        with pytest.raises(TransactionAborted, match="conflict"):
            gk.commit_prepared(second, ["v1"])
        assert gk.stats.aborts == 1
        assert store.get("k") == 1

    def test_timestamp_inversion_aborts(self):
        # A dominating last-update stamp on the vertex forces an abort;
        # the client retries with a fresh, higher stamp (section 4.2).
        gk, store = self.make_gk()
        store.transact(lambda t: t.put("__lastup__:v1", _stamp([99, 99])))
        tx = self.prepared(store)
        with pytest.raises(TransactionAborted, match="inversion"):
            gk.commit_prepared(tx, ["v1"])
        assert gk.stats.aborts == 1
        assert not tx.is_open
        assert store.get("k") is None

    def test_concurrent_last_update_allowed(self):
        # Cross-gatekeeper concurrent stamps pass the check (the shards'
        # arrival order refines them, section 4.2).
        gk, store = self.make_gk()
        other = Gatekeeper(1, 2, store)
        other_ts = other.issue_timestamp()
        store.transact(lambda t: t.put("__lastup__:v1", other_ts))
        ts = gk.commit_prepared(self.prepared(store), ["v1"])
        assert ts.compare(other_ts) is Ordering.CONCURRENT

    def test_deadline_clears_the_touched_vertex_last_deadline(self):
        # Tiga's commit rule (geo): the touched vertex was last updated
        # at a deadline ahead of this region's clock horizon, so the new
        # commit's deadline must land past it.
        gk, store = self.make_gk()
        gk.deadline_stamper = DeadlineStamper(lambda: 0.0, horizon=1.0)
        last = VectorTimestamp(0, (0, 5), 1, deadline=50.0)
        store.transact(lambda t: t.put("__lastup__:v1", last))
        ts = gk.commit_prepared(self.prepared(store), ["v1"])
        assert ts.deadline > 50.0
        untouched = gk.commit_prepared(self.prepared(store), ["v2"])
        assert ts.deadline < untouched.deadline < 50.0 + 1.0

    def test_retry_after_abort_gets_higher_stamp(self):
        gk, store = self.make_gk()
        first = gk.issue_timestamp()
        second = gk.issue_timestamp()
        assert first.compare(second) is Ordering.BEFORE

    def test_commit_without_store_raises(self):
        gk = Gatekeeper(0, 1)
        with pytest.raises(RuntimeError):
            gk.commit(lambda tx: None, [])

    def test_failed_apply_counts_abort_and_releases_tx(self):
        # Any exception while writing the store transaction — not just
        # an optimistic abort — must count as an abort and close it.
        gk, store = self.make_gk()

        def boom(tx):
            tx.put("k", 1)
            raise ValueError("mutation bug")

        with pytest.raises(ValueError):
            gk.commit(boom, ["v1"])
        assert gk.stats.aborts == 1
        assert store.get("k") is None
        # The store is fully released: a retry commits cleanly.
        gk.commit(lambda tx: tx.put("k", 2), ["v1"])
        assert store.get("k") == 2


class TestEpochs:
    def test_advance_epoch_restarts_clock(self):
        gk = Gatekeeper(0, 2)
        old = gk.issue_timestamp()
        gk.advance_epoch(1)
        new = gk.issue_timestamp()
        assert old.compare(new) is Ordering.BEFORE
        assert new.epoch == 1


def _stamp(clocks):
    return VectorTimestamp(0, tuple(clocks), 0)
