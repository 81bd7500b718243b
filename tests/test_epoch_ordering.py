"""Epoch-crossing ordering: the oracle fast path and recovery barriers.

Section 4.3's rule — any timestamp of a lower epoch happens-before any
timestamp of a higher epoch — must hold through every ordering surface:
the vector-clock comparison, the timeline oracle's query path, and the
skyline-indexed reachability search (whose buckets are keyed by
``(epoch, issuer)``).  Recovery must also honour it physically: a
recovered shard reloads from the backing store and *drops* pre-epoch
stragglers instead of replaying them.
"""

from repro.cluster.messages import QueuedTransaction
from repro.core.gatekeeper import Gatekeeper
from repro.core.oracle import TimelineOracle
from repro.core.vclock import Ordering
from repro.db import operations as ops
from repro.db.config import WeaverConfig
from repro.programs import GetNode
from repro.sim.clock import MSEC
from repro.sim.deployment import SimulatedWeaver


class TestOracleFastPath:
    def test_query_order_crosses_epochs_without_graph_events(self):
        gk = Gatekeeper(0, 2)
        old = gk.issue_timestamp()
        gk.advance_epoch(1)
        new = gk.issue_timestamp()
        oracle = TimelineOracle()
        assert oracle.query_order(old, new) is Ordering.BEFORE
        assert oracle.query_order(new, old) is Ordering.AFTER
        # The vclock epoch rule answered; no events were registered.
        assert oracle.num_events == 0

    def test_order_across_epochs_mints_no_decision(self):
        gk = Gatekeeper(0, 2)
        old = gk.issue_timestamp()
        gk.advance_epoch(1)
        new = gk.issue_timestamp()
        oracle = TimelineOracle()
        assert oracle.order(old, new, prefer=Ordering.AFTER) is (
            Ordering.BEFORE
        )
        assert oracle.stats.decisions == 0

    def test_epoch_restart_does_not_confuse_issuer_fast_path(self):
        # After an epoch bump the clock restarts: the new stamp's counter
        # is *smaller* than the old one's, and only the epoch rule keeps
        # the comparison correct.
        gk = Gatekeeper(0, 2)
        for _ in range(5):
            old = gk.issue_timestamp()
        gk.advance_epoch(1)
        new = gk.issue_timestamp()
        assert new.clocks[0] < old.clocks[0]
        assert old.compare(new) is Ordering.BEFORE

    def test_skyline_buckets_are_per_epoch(self):
        gks = [Gatekeeper(i, 2) for i in range(2)]
        a0, b0 = (gk.issue_timestamp() for gk in gks)
        oracle = TimelineOracle()
        for ts in (a0, b0):
            oracle.create_event(ts)
        oracle.assign_order(a0, b0)
        for gk in gks:
            gk.advance_epoch(1)
        a1, b1 = (gk.issue_timestamp() for gk in gks)
        for ts in (a1, b1):
            oracle.create_event(ts)
        oracle.assign_order(a1, b1)
        # One bucket per (epoch, issuer) with explicit out-edges.
        assert set(oracle.graph._out_index) == {(0, 0), (1, 0)}
        # Cross-epoch reachability is immediate (epoch rule)...
        assert oracle.graph.reaches(a0, b1)
        assert oracle.query_order(b0, a1) is Ordering.BEFORE
        # ...while epoch-0 commitments do not leak order into concurrent
        # epoch-1 pairs beyond what was actually decided there.
        c1 = gks[0].issue_timestamp()
        oracle.create_event(c1)
        assert oracle.query_order(c1, b1) is None

    def test_search_within_new_epoch_prunes_old_buckets(self):
        gks = [Gatekeeper(i, 2) for i in range(2)]
        oracle = TimelineOracle()
        # A long epoch-0 explicit chain to make pruning observable.
        prev = gks[0].issue_timestamp()
        oracle.create_event(prev)
        for _ in range(4):
            nxt = gks[0].issue_timestamp()
            oracle.create_event(nxt)
            oracle.assign_order(prev, nxt)
            prev = nxt
        for gk in gks:
            gk.advance_epoch(1)
        a1 = gks[0].issue_timestamp()
        b1 = gks[1].issue_timestamp()
        for ts in (a1, b1):
            oracle.create_event(ts)
        pruned_before = oracle.stats.bfs_pruned
        assert oracle.query_order(a1, b1) is None
        # The epoch-0 bucket was skipped wholesale, not bisected.
        assert oracle.stats.bfs_pruned > pruned_before


class TestRecoveryBarrier:
    def make(self):
        return SimulatedWeaver(
            WeaverConfig(num_gatekeepers=2, num_shards=2),
            heartbeat_period=5 * MSEC,
        )

    def test_recovered_shard_drops_pre_epoch_straggler(self):
        sw = self.make()
        box = {}
        sw.submit_transaction(
            [ops.CreateVertex("a"), ops.SetVertexProperty("a", "k", 1)],
            callback=lambda ok, v: box.update(ok=ok),
        )
        sw.run(2 * MSEC)
        assert box["ok"]
        # A stamp minted before the crash, as if its message were still
        # in flight when the shard died.
        old_ts = sw.gatekeepers[0].issue_timestamp()
        assert old_ts.epoch == 0
        sw.crash_shard(0)
        sw.run(60 * MSEC)  # detector fires, epoch bumps, shard reloads
        assert sw.recoveries == 1
        straggler = QueuedTransaction(
            old_ts, (ops.SetVertexProperty("a", "k", 99),), None, None
        )
        before = sw.stragglers_dropped
        depths = sw.shards[0].queue_depths()
        # Delivered the way the network would: through the handler the
        # deployment registered for shard0 on its transport.
        sw.transport._dispatch("shard0", "gk0", "enqueue", (0, straggler))
        # Dropped by the epoch barrier, not queued or applied: the
        # reloaded store state already reflects everything pre-epoch.
        assert sw.stragglers_dropped == before + 1
        assert sw.shards[0].queue_depths() == depths

    def test_stamps_across_shard_recovery_stay_ordered(self):
        sw = self.make()
        box = {}
        sw.submit_transaction(
            [ops.CreateVertex("a"), ops.SetVertexProperty("a", "k", 1)],
            callback=lambda ok, v: box.update(pre=v),
        )
        sw.run(2 * MSEC)
        sw.crash_shard(0)
        sw.run(60 * MSEC)
        assert sw.recoveries == 1
        sw.submit_transaction(
            [ops.SetVertexProperty("a", "k", 2)],
            callback=lambda ok, v: box.update(post=v, ok=ok),
        )
        sw.run(5 * MSEC)
        assert box["ok"]
        assert box["pre"].compare(box["post"]) is Ordering.BEFORE
        result_box = {}
        sw.submit_program(
            GetNode(), "a", callback=lambda r: result_box.update(r=r)
        )
        sw.run(20 * MSEC)
        assert result_box["r"].value["properties"]["k"] == 2
