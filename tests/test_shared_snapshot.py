"""A shard's snapshot view is shared by every read at its stamp, and it
is sound: one view per (shard, stamp, graph generation).

Each case reads at one stamp, changes the graph underneath by one of the
paths that write to a shard's graph — apply, migration, eviction and
page-in, garbage collection, reconcile, recovery — and reads at the
same stamp again.  The second read must give the answer a fresh view
gives, and the shard must have built a new view for it
(:meth:`~repro.cluster.shard.ShardServer.snapshot`).  Where the path
exists on the hand-driven one-shard engine, the case runs there too.

The last cases pin what sharing must not do: keep a query's
``prog_state`` reachable after the query returns, or re-decide a
comparison a read at the same stamp already made.
"""

import gc
import weakref

import pytest

from repro.cluster.messages import ProgramStart, QueuedTransaction
from repro.cluster.shard import ShardServer
from repro.cluster.worker import ResidentEngine, ShardEndpoint
from repro.core.gatekeeper import Gatekeeper
from repro.core.oracle import TimelineOracle
from repro.db import Weaver, WeaverClient, WeaverConfig
from repro.db import operations as ops
from repro.programs import Bfs, params
from repro.programs.framework import NodeProgram
from repro.programs.library import PROGRAM_REGISTRY, GetNode

from .wire_fixtures import order_key


def view_at(shard, ts):
    """The view ``shard`` keeps for ``ts``, if any."""
    kept = shard._view
    return kept[2] if kept is not None and kept[1] == ts.id else None


def red(client, handle):
    with client.transaction() as tx:
        tx.create_vertex(handle)
        tx.set_property(handle, "color", "red")
    return handle


def color(result):
    return result.results[0]["properties"].get("color")


class Engine(ResidentEngine):
    """One shard, one gatekeeper, no peers: :meth:`apply` commits
    operations and readies the shard for a stamp after them."""

    def __init__(self):
        self.replies = []
        self.gk = Gatekeeper(0, 1)
        self.seqno = 0
        super().__init__(
            ShardEndpoint(ShardServer(0, 1, TimelineOracle())), 0,
            lambda handle: 0,
        )

    def _reply(self, conn, rid, result=None, error=None):
        self.replies.append((rid, result, error))

    def apply(self, *operations):
        seqno = self.seqno
        self.seqno += 2
        write = QueuedTransaction(
            self.gk.issue_timestamp(), operations, seqno=seqno,
            tiebreak=seqno,
        )
        ts = self.gk.issue_timestamp()
        nop = QueuedTransaction(
            self.gk.make_nop(), seqno=seqno + 1, tiebreak=seqno + 1
        )
        self._dispatch("gk0", {"k": "b", "m": [
            ("enqueue", (0, write)), ("enqueue", (0, nop)),
            ("advance_to", ts),
        ]})
        return ts

    def read(self, ts, program, handle, start_params=None):
        qid = len(self.replies) + 1
        self._dispatch("client", {
            "k": "r", "id": qid, "kind": "program_start",
            "p": ProgramStart(ts, qid, program, (
                (handle, start_params, order_key(0)),
            )),
        })
        self.drain()
        rid, result, error = self.replies[-1]
        assert (rid, error) == (qid, None) and "error" not in result, result
        return result["results"]

    @property
    def shard(self):
        return self.worker.shard


# -- the graph changes under a stamp already read at ---------------------


class TestAnApplyBetweenTwoReads:

    def test_weaver_at_a_checkpoint(self):
        db = Weaver(WeaverConfig(num_shards=1))
        client = WeaverClient(db)
        v = red(client, "v")
        point = db.checkpoint()
        client.set_property(v, "color", "blue")
        (shard,) = db.shards
        assert color(db.run_program(GetNode(), v, at=point)) == "red"
        before = view_at(shard, point)
        db.drain()
        assert color(db.run_program(GetNode(), v, at=point)) == "red"
        assert view_at(shard, point) is not before
        assert client.get_node(v)["properties"]["color"] == "blue"

    def test_engine(self):
        engine = Engine()
        old = engine.apply(
            ops.CreateVertex("v"), ops.SetVertexProperty("v", "color", "red")
        )
        (first,) = engine.read(old, "get_node", "v")
        before = view_at(engine.shard, old)
        new = engine.apply(ops.SetVertexProperty("v", "color", "blue"))
        assert engine.read(old, "get_node", "v") == [first]
        assert first["properties"] == {"color": "red"}
        assert view_at(engine.shard, old) is not before
        (now,) = engine.read(new, "get_node", "v")
        assert now["properties"] == {"color": "blue"}


def test_a_migrated_vertex_reads_at_a_stamp_both_shards_served():
    """``a`` moves onto ``b``'s shard, whose view at the point was built
    before ``a``'s record arrived there."""
    db = Weaver(WeaverConfig(num_shards=2))
    client = WeaverClient(db)
    with client.transaction() as tx:
        a = tx.create_vertex("a")
        tx.set_property(a, "color", "red")
        b = tx.create_vertex("b")
        tx.create_edge(a, b)
        tx.create_edge(b, a)
    point = db.checkpoint()
    start = params(depth=0)
    expected = db.run_program(Bfs(), a, start, at=point).results
    assert sorted(expected) == [a, b]
    here, there = db._shard_of(a), db._shard_of(b)
    assert here != there
    assert None not in [view_at(shard, point) for shard in db.shards]
    adopter = db.shards[there]
    before = view_at(adopter, point)
    assert db.migrate_vertex(a, there)
    assert db.run_program(Bfs(), a, start, at=point).results == expected
    assert color(db.run_program(GetNode(), a, at=point)) == "red"
    assert view_at(adopter, point) is not before


def test_evict_then_page_in():
    db = Weaver(WeaverConfig(num_shards=1))
    db.enable_demand_paging()
    client = WeaverClient(db)
    v = red(client, "v")
    point = db.checkpoint()
    (shard,) = db.shards
    assert color(db.run_program(GetNode(), v, at=point)) == "red"
    before = view_at(shard, point)
    assert db.evict_vertex(v) > 0
    assert color(db.run_program(GetNode(), v, at=point)) == "red"
    assert shard.stats.pages_in == 1
    assert view_at(shard, point) is not before


class TestGarbageCollectionBetweenTwoReads:

    def test_weaver(self):
        db = Weaver(WeaverConfig(num_shards=1))
        client = WeaverClient(db)
        v = red(client, "v")
        client.set_property(v, "color", "blue")
        point = db.checkpoint()
        (shard,) = db.shards
        assert color(db.run_program(GetNode(), v, at=point)) == "blue"
        before = view_at(shard, point)
        assert db.collect_garbage()["graph"] >= 1       # the red record
        assert color(db.run_program(GetNode(), v, at=point)) == "blue"
        assert view_at(shard, point) is not before

    def test_engine(self):
        engine = Engine()
        engine.apply(
            ops.CreateVertex("v"), ops.SetVertexProperty("v", "color", "red")
        )
        ts = engine.apply(ops.SetVertexProperty("v", "color", "blue"))
        (first,) = engine.read(ts, "get_node", "v")
        before = view_at(engine.shard, ts)
        reclaimed, _cache = engine.worker.deliver(None, "collect_below", ts)
        assert reclaimed == 1
        assert engine.read(ts, "get_node", "v") == [first]
        assert first["properties"] == {"color": "blue"}
        assert view_at(engine.shard, ts) is not before


class TestRecovery:

    def test_reconcile_patches_a_survivor(self):
        """Shard 1 fails while a committed write never reached shard 0
        (its forward dropped, as a partitioned straggler is); the
        barrier's reconcile writes it into shard 0's graph, at the
        recovery stamp."""
        db = Weaver(WeaverConfig(num_shards=2))
        client = WeaverClient(db)
        with client.transaction() as tx:
            a = tx.create_vertex("a")
            tx.set_property(a, "color", "red")
            tx.create_vertex("b")
        survivor = db.shards[db._shard_of(a)]
        failed = 1 - survivor.index
        point = db.checkpoint()
        assert color(db.run_program(GetNode(), a, at=point)) == "red"
        before = view_at(survivor, point)
        client.set_property(a, "color", "blue")
        for queue in survivor._queues:
            queue.clear()                       # the dropped forward
        patched = db.manager.reconciled_records
        db.fail_shard(failed)
        assert db.manager.reconciled_records > patched
        assert color(db.run_program(GetNode(), a, at=point)) == "red"
        assert view_at(survivor, point) is not before
        assert client.get_node(a)["properties"]["color"] == "blue"

    def test_kill_and_recover_a_worker(self):
        """The survivor flushes its queue at the barrier — a write to
        ``w`` after the point — and still answers at the point as
        before; the replacement reloads ``v`` at the recovery stamp, so
        at the point it holds nothing, as a fresh view of it says."""
        from repro.cluster.process import ProcessWeaver

        with ProcessWeaver(WeaverConfig(num_shards=2)) as db:
            client = WeaverClient(db)
            v, w = red(client, "v"), red(client, "w")
            index = db._shard_of(v)
            assert db._shard_of(w) != index
            point = db.checkpoint()
            for handle in (v, w):
                assert color(db.run_program(GetNode(), handle, at=point)) == (
                    "red"
                )
                client.set_property(handle, "color", "blue")
            db.kill_shard_worker(index)
            db.recover_shard(index)
            assert color(db.run_program(GetNode(), w, at=point)) == "red"
            assert db.run_program(GetNode(), v, at=point).results == []
            for handle in (v, w):
                assert client.get_node(handle)["properties"] == {
                    "color": "blue"
                }


# -- what sharing must not do ------------------------------------------------


class Tracked:
    """A ``prog_state`` a weak reference can follow."""

    visited = False


class TrackedBfs(NodeProgram):
    """``Bfs`` whose states are watched through weak references."""

    name = "tracked_bfs"
    dedup_hops = True
    refs: list = []

    def init_state(self):
        state = Tracked()
        TrackedBfs.refs.append(weakref.ref(state))
        return state

    def run(self, node, params, ctx):
        return Bfs.run(self, node, params, ctx)


@pytest.fixture
def tracked(monkeypatch):
    monkeypatch.setitem(PROGRAM_REGISTRY, TrackedBfs.name, TrackedBfs)
    TrackedBfs.refs.clear()
    yield TrackedBfs.refs
    TrackedBfs.refs.clear()


def chain(n=6):
    return [ops.CreateVertex(f"v{i}") for i in range(n)] + [
        ops.CreateEdge(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)
    ]


class TestNoQueryStateOutlivesItsQuery:

    def test_weaver(self, tracked):
        db = Weaver(WeaverConfig(num_shards=2))
        client = WeaverClient(db)
        with client.transaction() as tx:
            for op in chain():
                tx.record(op)
        result = db.run_program(TrackedBfs(), "v0", params(depth=0))
        assert len(result.results) == len(tracked) == 6
        gc.collect()
        assert [ref() for ref in tracked] == [None] * 6

    def test_engine(self, tracked):
        engine = Engine()
        ts = engine.apply(*chain())
        assert len(engine.read(ts, "tracked_bfs", "v0", params(depth=0))) == 6
        gc.collect()
        assert len(tracked) == 6
        assert [ref() for ref in tracked] == [None] * 6
        assert not engine.queries


def test_a_second_read_at_one_stamp_decides_no_comparison_again():
    """Only the readiness check of each shard's queue heads compares;
    every visibility decision the first read made is the view's."""
    db = Weaver(WeaverConfig(num_shards=2))
    client = WeaverClient(db)
    with client.transaction() as tx:
        for i in range(12):
            tx.create_vertex(f"v{i}")
        for i in range(12):
            for j in (1, 2, 3):
                tx.create_edge(f"v{i}", f"v{(i + j) % 12}")
    start = params(depth=0, max_depth=2)
    first = db.run_program(Bfs(), "v0", start)
    compares = sum(db.ordering_stats().values())
    for shard in db.shards:
        assert shard.not_ready(first.timestamp) is None
    readiness = sum(db.ordering_stats().values()) - compares
    compares = sum(db.ordering_stats().values())
    second = db.run_program(Bfs(), "v0", start)
    assert second.timestamp is first.timestamp
    assert second.results == first.results
    assert sum(db.ordering_stats().values()) - compares == readiness
