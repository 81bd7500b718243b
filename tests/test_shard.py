"""Shard servers: queues, FIFO channels, the Fig 6 event loop."""

import pytest

from repro.cluster.messages import QueuedTransaction
from repro.cluster.shard import ShardServer
from repro.cluster.worker import ShardEndpoint
from repro.core.gatekeeper import Gatekeeper, sync_announce_all
from repro.core.oracle import TimelineOracle
from repro.db.operations import CreateVertex, SetVertexProperty
from repro.errors import ClusterError


@pytest.fixture
def oracle():
    return TimelineOracle()


@pytest.fixture
def shard(oracle):
    return ShardServer(0, 2, oracle)


@pytest.fixture
def gks():
    return [Gatekeeper(i, 2) for i in range(2)]


def tx_for(gk, *handles):
    ts = gk.issue_timestamp()
    return QueuedTransaction(ts, tuple(CreateVertex(h) for h in handles))


def nop_for(gk):
    return QueuedTransaction(gk.make_nop())


class TestQueues:
    def test_enqueue_and_depths(self, shard, gks):
        shard.enqueue(0, tx_for(gks[0], "a"))
        assert shard.queue_depths() == [1, 0]

    def test_unknown_gatekeeper_rejected(self, shard, gks):
        with pytest.raises(ClusterError):
            shard.enqueue(5, tx_for(gks[0], "a"))

    def test_fifo_seqno_enforced(self, shard, gks):
        ts1 = gks[0].issue_timestamp()
        ts2 = gks[0].issue_timestamp()
        shard.enqueue(0, QueuedTransaction(ts1, (), seqno=0))
        with pytest.raises(ClusterError):
            shard.enqueue(0, QueuedTransaction(ts2, (), seqno=2))
        assert shard.stats.out_of_order_rejected == 1

    def test_fifo_seqno_accepts_contiguous(self, shard, gks):
        for i in range(3):
            shard.enqueue(
                0, QueuedTransaction(gks[0].issue_timestamp(), (), seqno=i)
            )
        assert shard.queue_depths()[0] == 3

    def test_seqnos_per_gatekeeper_independent(self, shard, gks):
        shard.enqueue(0, QueuedTransaction(gks[0].issue_timestamp(), (), seqno=0))
        shard.enqueue(1, QueuedTransaction(gks[1].issue_timestamp(), (), seqno=0))
        assert shard.queue_depths() == [1, 1]


class TestEventLoop:
    def test_no_apply_while_any_queue_empty(self, shard, gks):
        shard.enqueue(0, tx_for(gks[0], "a"))
        assert shard.apply_available() == 0
        assert "a" not in shard.graph

    def test_applies_when_all_queues_nonempty(self, shard, gks):
        shard.enqueue(0, tx_for(gks[0], "a"))
        shard.enqueue(1, nop_for(gks[1]))
        # The transaction arrived first, so it applies; the loop then
        # stops because queue 0 has drained (Fig 6's non-empty rule).
        applied = shard.apply_available()
        assert applied == 1
        assert "a" in shard.graph
        assert shard.stats.transactions_applied == 1
        assert shard.stats.nops_applied == 0

    def test_applies_in_timestamp_order_across_queues(self, shard, gks):
        early = tx_for(gks[0], "early")
        sync_announce_all(gks)
        late = tx_for(gks[1], "late")
        order = []
        shard.enqueue(1, late)
        shard.enqueue(0, early)
        shard.enqueue(0, nop_for(gks[0]))  # keeps queue 0 non-empty
        shard.apply_available(on_apply=lambda q: order.append(q.ts))
        assert order[0] == early.ts

    def test_concurrent_heads_use_arrival_order(self, shard, gks):
        # Crossed stamps, no announce: first-arrived applies first.
        a = tx_for(gks[0], "first_arrival")
        b = tx_for(gks[1], "second_arrival")
        applied = []
        shard.enqueue(1, b)
        shard.enqueue(0, a)
        shard.apply_available(
            on_apply=lambda q: applied.append(
                q.operations[0].handle if q.operations else "nop"
            )
        )
        assert applied[0] == "second_arrival"

    def test_same_gatekeeper_queue_orders_by_counter(self, shard, gks):
        t1 = tx_for(gks[0], "x1")
        t2 = tx_for(gks[0], "x2")
        applied = []
        shard.enqueue(0, t2)
        shard.enqueue(0, t1)
        shard.enqueue(1, nop_for(gks[1]))
        shard.apply_available(
            on_apply=lambda q: applied.append(
                q.operations[0].handle if q.operations else "nop"
            )
        )
        assert applied.index("x1") < applied.index("x2")


class TestProgramReadiness:
    def test_not_ready_with_empty_queue(self, shard, gks):
        prog_ts = gks[0].issue_timestamp()
        assert not shard.ready_for(prog_ts)

    def test_ready_after_dominating_nops(self, shard, gks):
        prog_ts = gks[0].issue_timestamp()
        sync_announce_all(gks)
        shard.enqueue(0, nop_for(gks[0]))
        shard.enqueue(1, nop_for(gks[1]))
        assert shard.ready_for(prog_ts)

    def test_advance_to_applies_preceding_transactions(self, shard, gks):
        write = tx_for(gks[0], "w")
        sync_announce_all(gks)
        prog_ts = gks[1].issue_timestamp()
        sync_announce_all(gks)
        shard.enqueue(0, write)
        shard.enqueue(0, nop_for(gks[0]))
        shard.enqueue(1, nop_for(gks[1]))
        assert shard.advance_to(prog_ts)
        assert "w" in shard.graph

    def test_advance_stops_before_later_transactions(self, shard, gks):
        prog_ts = gks[0].issue_timestamp()
        sync_announce_all(gks)
        later = tx_for(gks[0], "later")
        shard.enqueue(0, later)
        shard.enqueue(1, nop_for(gks[1]))
        shard.advance_to(prog_ts)
        assert "later" not in shard.graph

    def test_snapshot_counts_program(self, shard, gks):
        ts = gks[0].issue_timestamp()
        shard.snapshot(ts)
        assert shard.stats.programs_started == 1

    def test_concurrent_write_ordered_before_program(self, shard, gks):
        # The section 4.1 rule: an unordered (write, program) pair
        # resolves write-first, so the program sees the write.
        write = tx_for(gks[0], "w")
        prog_ts = gks[1].issue_timestamp()  # concurrent with the write
        shard.enqueue(0, write)
        shard.enqueue(0, nop_for(gks[0]))
        shard.enqueue(1, nop_for(gks[1]))
        shard.apply_available(stop_before=prog_ts)
        assert "w" in shard.graph
        view = shard.snapshot(prog_ts)
        assert view.has_vertex("w")


class TestEpochs:
    def test_advance_epoch_clears_queues(self, shard, gks):
        shard.enqueue(0, tx_for(gks[0], "a"))
        shard.advance_epoch(1)
        assert shard.queue_depths() == [0, 0]
        assert shard.epoch == 1

    def test_advance_epoch_resets_seqnos(self, shard, gks):
        shard.enqueue(0, QueuedTransaction(gks[0].issue_timestamp(), (), seqno=0))
        shard.advance_epoch(1)
        shard.enqueue(0, QueuedTransaction(gks[0].issue_timestamp(), (), seqno=0))
        assert shard.queue_depths()[0] == 1

    def test_epoch_must_advance(self, shard):
        with pytest.raises(ClusterError):
            shard.advance_epoch(0)


class TestGC:
    def test_collect_below_delegates_to_graph(self, shard, gks):
        create = tx_for(gks[0], "a")
        shard.enqueue(0, create)
        shard.enqueue(1, nop_for(gks[1]))
        shard.apply_available()
        ts = gks[0].issue_timestamp()
        assert shard.collect_below(ts) == 0  # nothing dead yet

    def test_collect_below_message_replies_the_graph_count(
        self, shard, gks
    ):
        # Two versions of one property; the older is dead below a
        # watermark that dominates both writes.
        for value in (1, 2):
            shard.enqueue(0, QueuedTransaction(
                gks[0].issue_timestamp(),
                (SetVertexProperty("a", "k", value),)
                if value == 2 else
                (CreateVertex("a"), SetVertexProperty("a", "k", value)),
            ))
            shard.enqueue(1, nop_for(gks[1]))
            shard.apply_available()
        watermark = gks[0].issue_timestamp()
        endpoint = ShardEndpoint(shard)
        assert endpoint.deliver(None, "collect_below", watermark) == 1
