"""A shard's snapshot view is shared by every read at its stamp, and it
is sound: one view per (shard, stamp, graph generation).  What a view
works out outlives it at every later stamp that follows all the shard
holds, until a write under the vertex (``shard.answers_carried``).

Each case reads at one stamp, changes the graph underneath by one of the
paths that write to a shard's graph — apply, migration, eviction and
page-in, garbage collection, reconcile, recovery — and reads at the
same stamp again.  The second read must give the answer a fresh view
gives, and the shard must have built a new view for it
(:meth:`~repro.cluster.shard.ShardServer.snapshot`).  Where the path
exists on the hand-driven one-shard engine, the case runs there too.

The carrying cases read at a current stamp, write through each of
those paths, and read at a later current stamp: that read takes some
answers the first one worked out, and answers as a fresh view does
(``MultiVersionGraph.at`` without ``carry_stats``).  A reused stamp
after an apply and an ``at=`` checkpoint behind a write carry nothing.
``tests/test_carried_answers.py`` is the same check under random writes.

The last cases pin what sharing must not do: keep a query's
``prog_state`` reachable after the query returns, or re-decide a
comparison a read at the same stamp already made.
"""

import gc
import weakref

import pytest

from repro.db import Weaver, WeaverClient, WeaverConfig
from repro.db import operations as ops
from repro.programs import Bfs, params
from repro.programs.framework import NodeProgram
from repro.programs.library import PROGRAM_REGISTRY, GetNode

from .engine_rig import Engine


def view_at(shard, ts):
    """The view ``shard`` keeps for ``ts``, if any."""
    kept = shard._view
    return kept[2] if kept is not None and kept[1] == ts.id else None


def answers(view, handles):
    """What ``view`` says of each handle: None, or its properties and
    its out-edges with theirs."""
    batch = dict.fromkeys(handles)
    view.resolve_into(batch)
    return {
        handle: None if node is None else (
            node.properties(),
            sorted(
                (edge.handle, edge.nbr, sorted(edge.properties().items()))
                for edge in node.neighbors
            ),
        )
        for handle, node in batch.items()
    }


def carried_as_fresh(shard, ts, handles):
    """The view ``shard`` reads ``ts`` through answers for ``handles``
    as a fresh view with carrying bypassed does."""
    assert answers(shard.snapshot(ts), handles) == answers(
        shard.graph.at(ts), handles
    )


def red(client, handle):
    with client.transaction() as tx:
        tx.create_vertex(handle)
        tx.set_property(handle, "color", "red")
    return handle


def color(result):
    return result.results[0]["properties"].get("color")


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
        reclaimed = engine.worker.deliver(None, "collect_below", ts)
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


# -- answers carried across current stamps -----------------------------


def carried(db):
    return db.metrics.snapshot()["shard.answers_carried"]


def read_at_a_fresh_point(db, handles):
    """``GetNode`` of every handle at a fresh checkpoint (it follows
    every committed write); the point."""
    point = db.checkpoint()
    for handle in handles:
        db.run_program(GetNode(), handle, at=point)
    return point


def linked(client, *handles):
    """Red vertices, each with an edge to the next (a ring)."""
    with client.transaction() as tx:
        for handle in handles:
            tx.create_vertex(handle)
            tx.set_property(handle, "color", "red")
        for src, dst in zip(handles, handles[1:] + handles[:1]):
            tx.create_edge(src, dst)
    return handles


class TestAnswersCarriedAcrossStamps:
    """Read at a current stamp, write through one path, read at a later
    current stamp: the second read takes answers the first worked out,
    and every shard answers there as a fresh view does."""

    def second_read_carries(self, db, handles, first):
        before = carried(db)
        point = read_at_a_fresh_point(db, handles)
        assert point is not first
        assert carried(db) > before
        for shard in db.shards:
            carried_as_fresh(shard, point, handles)
        return point

    def test_apply(self):
        db = Weaver(WeaverConfig(num_shards=1))
        client = WeaverClient(db)
        handles = linked(client, "u", "v", "w")
        first = read_at_a_fresh_point(db, handles)
        client.set_property("v", "color", "blue")
        client.create_edge("v", "u")
        point = self.second_read_carries(db, handles, first)
        (shard,) = db.shards
        assert answers(shard.snapshot(point), ["v"])["v"][0] == {
            "color": "blue"
        }
        assert len(answers(shard.snapshot(point), ["v"])["v"][1]) == 2

    def test_engine_apply(self):
        engine = Engine()
        ts = engine.apply(*chain(4))
        engine.read(ts, "bfs", "v0", params(depth=0))
        shard = engine.shard
        before = shard.stats.answers_carried
        later = engine.apply(ops.CreateEdge("x", "v1", "v3"))
        assert engine.read(later, "bfs", "v0", params(depth=0)) == [
            "v0", "v1", "v2", "v3"
        ]
        assert shard.stats.answers_carried > before
        carried_as_fresh(shard, later, [f"v{i}" for i in range(4)])

    def test_migration(self):
        db = Weaver(WeaverConfig(num_shards=2))
        client = WeaverClient(db)
        handles = linked(client, "a", "b", "c", "d")
        there = db._shard_of("b")
        a = next(h for h in handles if db._shard_of(h) != there)
        first = read_at_a_fresh_point(db, handles)
        assert db.migrate_vertex(a, there)
        self.second_read_carries(db, handles, first)

    def test_evict_then_page_in(self):
        db = Weaver(WeaverConfig(num_shards=1))
        db.enable_demand_paging()
        client = WeaverClient(db)
        handles = linked(client, "v", "w")
        first = read_at_a_fresh_point(db, handles)
        assert db.evict_vertex("v") > 0
        self.second_read_carries(db, handles, first)
        assert db.shards[0].stats.pages_in == 1

    def test_garbage_collection(self):
        db = Weaver(WeaverConfig(num_shards=1))
        client = WeaverClient(db)
        handles = linked(client, "v", "w")
        client.set_property("v", "color", "blue")
        first = read_at_a_fresh_point(db, handles)
        assert db.collect_garbage()["graph"] >= 1       # the red record
        self.second_read_carries(db, handles, first)

    def test_reconcile(self):
        """As TestRecovery's reconcile case: the survivor's patch comes
        at the recovery stamp, in a new epoch."""
        db = Weaver(WeaverConfig(num_shards=2))
        client = WeaverClient(db)
        handles = linked(client, "a", "b", "c", "d")
        survivor = db.shards[db._shard_of("a")]
        first = read_at_a_fresh_point(db, handles)
        client.set_property("a", "color", "blue")
        for queue in survivor._queues:
            queue.clear()                       # the dropped forward
        patched = db.manager.reconciled_records
        db.fail_shard(1 - survivor.index)
        assert db.manager.reconciled_records > patched
        point = self.second_read_carries(db, handles, first)
        assert answers(survivor.snapshot(point), ["a"])["a"][0] == {
            "color": "blue"
        }

    def test_recovery(self):
        """The replacement loads its partition at the recovery stamp, so
        it carries from its first read on, to the one after a write."""
        db = Weaver(WeaverConfig(num_shards=2))
        client = WeaverClient(db)
        handles = linked(client, "a", "b", "c", "d")
        failed = db._shard_of("a")
        first = read_at_a_fresh_point(db, handles)
        db.fail_shard(failed)
        point = read_at_a_fresh_point(db, handles)
        for shard in db.shards:
            carried_as_fresh(shard, point, handles)
        client.set_property("a", "color", "blue")
        replacement = db.shards[failed]
        before = replacement.stats.answers_carried
        self.second_read_carries(db, handles, first)
        assert replacement.stats.answers_carried > before


class TestNothingCarried:

    def test_a_reused_stamp_after_an_apply(self):
        """The engine reads again at a stamp a later apply follows: the
        view keeps its own memo and still reads the stamp's state."""
        engine = Engine()
        ts = engine.apply(
            ops.CreateVertex("v"), ops.SetVertexProperty("v", "color", "red")
        )
        (first,) = engine.read(ts, "get_node", "v")
        shard = engine.shard
        engine.apply(ops.SetVertexProperty("v", "color", "blue"))
        before = shard.stats.answers_carried
        assert engine.read(ts, "get_node", "v") == [first]
        assert shard.stats.answers_carried == before
        assert not shard.graph.follows_all(ts)
        carried_as_fresh(shard, ts, ["v"])
        (now,) = engine.read(engine.apply(), "get_node", "v")
        assert now["properties"] == {"color": "blue"}

    def test_an_at_checkpoint_behind_a_write(self):
        db = Weaver(WeaverConfig(num_shards=1))
        client = WeaverClient(db)
        linked(client, "v", "w")
        point = read_at_a_fresh_point(db, ["v", "w"])
        client.set_property("v", "color", "blue")
        client.create_edge("w", "v")
        db.drain()
        (shard,) = db.shards
        before = shard.stats.answers_carried
        assert color(db.run_program(GetNode(), "v", at=point)) == "red"
        assert db.run_program(GetNode(), "w", at=point).results[0][
            "out_degree"
        ] == 1
        assert shard.stats.answers_carried == before
        carried_as_fresh(shard, point, ["v", "w"])
        assert client.get_node("v")["properties"] == {"color": "blue"}
        assert client.get_node("w")["out_degree"] == 2


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


def _compares(db):
    """Compares resolved so far, whichever way each was decided."""
    snap = db.metrics.snapshot()
    return sum(
        snap[f"ordering.{kind}"]
        for kind in ("proactive", "reactive")
    )


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
    compares = _compares(db)
    for shard in db.shards:
        assert shard.not_ready(first.timestamp) is None
    readiness = _compares(db) - compares
    compares = _compares(db)
    second = db.run_program(Bfs(), "v0", start)
    assert second.timestamp is first.timestamp
    assert second.results == first.results
    assert _compares(db) - compares == readiness
