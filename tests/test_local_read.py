"""A vertex-local read is one pass at its shard.

A program that declares ``reads_only_start`` ends at round 0.  When all
its start vertices live at the shard the request arrives at (a vertex
nobody placed counts as there), ``ResidentEngine._read_locally`` runs
that one round where it arrives and replies: no coordination record, no
``round_go`` / ``round_report`` to itself, no fragment.  Every other
program, and a frontier with a vertex on another shard, takes the
general round.

Each one-pass reply must equal ``Weaver.run_program``'s result field by
field and the reply the general round makes for the same request, and
it must move the counters the twin charges shard service from exactly
as the general round moves them, but for ``round_reports`` (no report
exists).  Covered on the hand-driven one-shard engine, against the same
engine with the one-pass path turned off, and on a two-worker
``ProcessWeaver`` against ``Weaver``.

An exception with an empty message (a bare ``assert``) fails its query
by the exception's name on every host, on either path.
"""

from __future__ import annotations

import pytest

from repro.cluster.messages import ProgramStart
from repro.cluster.process import ProcessWeaver
from repro.db import Weaver, WeaverConfig
from repro.db import operations as ops
from repro.db.database import WritePath
from repro.errors import ProgramError
from repro.obs.collect import scalar_fields
from repro.obs.trace import Tracer
from repro.programs.framework import VISIT_BUDGET_EXHAUSTED, NodeProgram
from repro.programs.library import (
    PROGRAM_REGISTRY,
    Bfs,
    CountEdges,
    GetEdges,
    GetNode,
    params,
)
from repro.sim.deployment import SimulatedWeaver

from .engine_rig import Engine, matches_weaver
from .test_sim_deployment import commit as sim_commit
from .wire_fixtures import order_key

GRAPH = (
    ops.CreateVertex("u"),
    ops.CreateVertex("v"), ops.SetVertexProperty("v", "c", "red"),
    ops.CreateVertex("w"), ops.SetVertexProperty("w", "c", "blue"),
    ops.CreateEdge("e1", "v", "w"),
    ops.SetEdgeProperty("v", "e1", "kind", "friend"),
    ops.CreateEdge("e2", "v", "v"),
    ops.CreateEdge("e3", "w", "v"),
)
LATER = (
    ops.SetVertexProperty("v", "c", "green"),
    ops.DeleteEdge("v", "e2"),
    ops.DeleteVertex("w"),
)
FRIENDS = params(edge_prop="kind")

READS = {
    "get_node": (GetNode, None),
    "get_edges": (GetEdges, None),
    "get_edges_prop": (GetEdges, FRIENDS),
    "count_edges": (CountEdges, None),
    "count_edges_prop": (CountEdges, FRIENDS),
}


# What a failed bare ``assert`` raises.  Spelled out: pytest rewrites
# the asserts of a test module to carry a message.
def bare_assert(holds: bool) -> None:
    if not holds:
        raise AssertionError


class BareAssert(GetNode):
    """``GetNode`` that fails a bare ``assert`` after emitting: its
    exception's message is empty."""

    name = "bare_assert_get_node"

    def run(self, node, params, ctx):
        super().run(node, params, ctx)
        bare_assert(params is not None)
        return ()


class AssertOnHop(NodeProgram):
    """Emits its vertex, then fails a bare ``assert`` at its hop: the
    general round's error path, with an empty message."""

    name = "assert_on_hop"

    def run(self, node, params, ctx):
        bare_assert(params is None)
        ctx.emit(node.handle)
        return [(node.handle, "hop")]


class HaltingRead(GetNode):
    """``GetNode`` that halts at the first vertex it finds."""

    name = "halting_get_node"

    def run(self, node, params, ctx):
        super().run(node, params, ctx)
        ctx.halt()
        return ()


class HoppingRead(GetNode):
    """``GetNode`` breaking its declaration with one hop."""

    name = "hopping_read"

    def run(self, node, params, ctx):
        super().run(node, params, ctx)
        return [(node.handle, None)]


ADDED = (BareAssert, AssertOnHop, HaltingRead, HoppingRead)


@pytest.fixture(name="registered", scope="module")
def registered_programs():
    """The test programs in the registry before any worker forks."""
    PROGRAM_REGISTRY.update((cls.name, cls) for cls in ADDED)
    yield
    for cls in ADDED:
        del PROGRAM_REGISTRY[cls.name]


# -- the one-shard engine, both paths ------------------------------------


class GeneralRound(Engine):
    """The rig with the one-pass path turned off: every program takes
    the general round."""

    def _read_locally(self, conn, rid, ps):
        return False


def serve(engine_cls, program, frontier, at_first=False, max_visits=None):
    """One ``program_start`` on a fresh rig holding ``GRAPH`` then
    ``LATER``, read at the stamp after ``LATER`` (after ``GRAPH`` for
    ``at_first``): (reply, counters moved, ``program.round`` spans)."""
    engine = engine_cls()
    first = engine.apply(*GRAPH)
    last = engine.apply(*LATER)
    spans = []
    engine.tracer = Tracer()
    engine.tracer.add_sink(spans.append)
    start = ProgramStart(
        first if at_first else last, 1, program.name, tuple(
            (handle, start_params, order_key(i))
            for i, (handle, start_params) in enumerate(frontier)
        ), trace_id=9, max_visits=max_visits or 10_000_000,
        init=vars(program) or None,
    )
    before = counters(engine)
    engine._dispatch("client", {
        "k": "r", "id": 1, "kind": "program_start", "p": start,
    })
    engine.drain()
    after = counters(engine)
    (reply,) = engine.replies
    return reply, {
        key: after[key] - before[key] for key in after
        if after[key] != before[key]
    }, [
        (span.trace_id, span.node, span.attrs)
        for span in spans if span.kind == "program.round"
    ]


def counters(engine) -> dict:
    moved = {
        f"program.{key}": value
        for key, value in scalar_fields(engine.prog_stats).items()
    }
    moved.update(
        (f"program.resident.{key}", value)
        for key, value in scalar_fields(engine.resident).items()
    )
    moved["shard.vertices_read"] = engine.shard.stats.vertices_read
    return moved


def both_paths(program, frontier, **kwargs):
    """The one-pass reply, after checking it, its counters and its span
    against the general round's for the same request."""
    one_pass, one_moved, one_spans = serve(Engine, program, frontier,
                                           **kwargs)
    general, general_moved, general_spans = serve(
        GeneralRound, program, frontier, **kwargs
    )
    assert one_pass == general
    assert general_moved.pop("program.resident.round_reports") == 1
    assert one_moved == general_moved
    assert one_moved["program.resident.rounds_executed"] == 1
    assert one_spans == general_spans and len(one_spans) == 1
    return one_pass


class TestOnTheEngine:
    @pytest.mark.parametrize("read", sorted(READS))
    @pytest.mark.parametrize("case", [
        "live", "deleted", "never_placed", "two_vertices", "at",
    ])
    def test_a_read_equals_the_general_round_and_weaver(self, read, case):
        cls, start_params = READS[read]
        handle = {"deleted": "w", "never_placed": "nobody"}.get(case, "v")
        frontier = [(handle, start_params)]
        if case == "two_vertices":
            frontier.append(("w", start_params))
        at_first = case in ("at", "two_vertices")
        rid, payload, error = both_paths(cls(), frontier, at_first=at_first)
        assert (rid, error) == (1, None) and "error" not in payload
        matches_weaver(payload, GRAPH, cls(), frontier,
                       then=() if at_first else LATER)

    def test_a_visit_budget_of_one_over_two_vertices_fails(self):
        frontier = [("v", None), ("w", None)]
        _rid, payload, _error = both_paths(
            GetNode(), frontier, at_first=True, max_visits=1
        )
        assert payload == {"error": VISIT_BUDGET_EXHAUSTED}

    def test_a_halting_read_halts_as_on_the_general_round(self, registered):
        frontier = [("nobody", None), ("v", None), ("w", None)]
        _rid, payload, _error = both_paths(
            HaltingRead(), frontier, at_first=True
        )
        assert payload["halted"] and payload["read_set"] == ["nobody", "v"]
        matches_weaver(payload, GRAPH, HaltingRead(), frontier)

    def test_a_hop_fails_with_the_general_round_text(self, registered):
        _rid, payload, _error = both_paths(HoppingRead(), [("v", None)])
        assert payload["error"].startswith(
            "hopping_read declares reads_only_start and returned a next-hop"
        )

    def test_a_program_without_the_declaration_takes_the_general_round(self):
        _reply, moved, _spans = serve(Engine, Bfs(), [("v", params(depth=0))])
        assert moved["program.resident.round_reports"] == 2


class TestAnEmptyMessageIsNamed:
    """``str(exc)`` of a bare ``assert`` is empty; the error text is the
    exception's repr instead, so the query fails and is not answered
    with what ran before the raise."""

    @pytest.mark.parametrize("engine_cls", [Engine, GeneralRound])
    def test_on_a_local_read_either_path(self, registered, engine_cls):
        (_rid, payload, _error), _moved, _spans = serve(
            engine_cls, BareAssert(), [("v", None)]
        )
        assert payload == {"error": "AssertionError()"}

    def test_on_the_general_round(self, registered):
        engine = Engine()
        ts = engine.apply(*GRAPH)
        engine._dispatch("client", engine.start(ts, 1, AssertOnHop.name, "v"))
        engine.drain()
        assert engine.replies[-1] == (1, {"error": "AssertionError()"}, None)
        assert engine.read(ts, "get_node", "v")[0]["handle"] == "v"
        with pytest.raises(AssertionError):
            load(Weaver(WeaverConfig(num_shards=1))).run_program(
                AssertOnHop(), "v"
            )

    def test_an_empty_text_still_fails_at_the_client(self):
        with pytest.raises(ProgramError):
            WritePath._program_result({"error": ""})

    def test_on_the_twin(self, registered):
        sw = SimulatedWeaver(WeaverConfig(num_shards=2))
        assert sim_commit(sw, list(GRAPH))["ok"]
        for program in (AssertOnHop(), BareAssert()):
            sw.submit_program(program, "v")
            with pytest.raises(ProgramError, match=r"AssertionError\(\)"):
                sw.run_until_quiet()
            answered = {}
            sw.submit_program(GetNode(), "v",
                              callback=lambda r: answered.update(result=r))
            sw.run_until_quiet()
            assert answered["result"].value["handle"] == "v"

    def test_on_worker_processes(self, registered):
        with ProcessWeaver(WeaverConfig(num_shards=2)) as db:
            load(db)
            for program in (AssertOnHop(), BareAssert()):
                with pytest.raises(ProgramError, match=r"AssertionError\(\)"):
                    db.run_program(program, "v")
                assert db.run_program(GetNode(), "v").value["handle"] == "v"


def load(db):
    tx = db.begin_transaction()
    for op in GRAPH:
        tx.record(op)
    tx.commit()
    return db


# -- two worker processes ------------------------------------------------


@pytest.fixture(name="pair", scope="module")
def worker_pair(registered):
    """A two-worker ``ProcessWeaver`` and a one-shard ``Weaver`` that
    both committed ``GRAPH``, took a checkpoint, then committed
    ``LATER``: (process, reference, the two checkpoints)."""
    db = ProcessWeaver(WeaverConfig(num_shards=2))
    reference = Weaver(WeaverConfig(num_shards=1))
    try:
        stamps = []
        for target in (db, reference):
            load(target)
            stamps.append(target.checkpoint())
            tx = target.begin_transaction()
            for op in LATER:
                tx.record(op)
            tx.commit()
        db.drain()
        yield db, reference, stamps
    finally:
        db.close()


def resident(db, key) -> int:
    return db.metrics.snapshot()[f"program.resident.{key}"]


def same_result(pair, program, frontier, at=False):
    """The two deployments answer alike, field by field; returns how
    many round reports the process read made."""
    db, reference, (db_at, reference_at) = pair
    reports = resident(db, "round_reports")
    got = db.run_program(program, frontier, at=db_at if at else None)
    expected = reference.run_program(
        program, frontier, at=reference_at if at else None
    )
    for field in ("results", "read_set", "vertices_visited", "hops",
                  "halted", "rounds", "states"):
        assert getattr(got, field) == getattr(expected, field), field
    return resident(db, "round_reports") - reports


def on_shard(db, index, handles=("u", "v", "w")):
    return [h for h in handles if db._shard_of(h) == index]


class TestOnWorkerProcesses:
    @pytest.mark.parametrize("read", sorted(READS))
    @pytest.mark.parametrize("handle", ["v", "w", "nobody"])
    def test_a_read_is_one_pass(self, pair, read, handle):
        cls, start_params = READS[read]
        assert same_result(pair, cls(), [(handle, start_params)]) == 0
        assert same_result(
            pair, cls(), [(handle, start_params)], at=True
        ) == 0

    def test_a_local_frontier_is_one_pass(self, pair):
        db = pair[0]
        local = max(on_shard(db, 0), on_shard(db, 1), key=len)[:2]
        frontier = [(handle, None) for handle in local] + [("nobody", None)]
        assert same_result(pair, GetNode(), frontier, at=True) == 0

    def test_a_mixed_owner_frontier_takes_the_general_round(self, pair):
        db = pair[0]
        frontier = [(on_shard(db, 0)[0], None), (on_shard(db, 1)[0], None)]
        assert same_result(pair, GetNode(), frontier, at=True) == 2

    def test_a_visit_budget_of_one_over_two_vertices_fails(self, pair):
        db = pair[0]
        db.executor._max_visits = 1
        try:
            with pytest.raises(ProgramError, match=VISIT_BUDGET_EXHAUSTED):
                db.run_program(GetNode(), [("v", None), ("nobody", None)])
        finally:
            db.executor._max_visits = 10_000_000
        assert db.run_program(GetNode(), "v").value["handle"] == "v"

    def test_a_halting_read_and_a_hopping_read(self, pair):
        # A first vertex nobody placed goes to the first shard.
        frontier = [("nobody", None), (on_shard(pair[0], 0)[0], None)]
        assert same_result(pair, HaltingRead(), frontier) == 0
        with pytest.raises(ProgramError, match="hopping_read declares"):
            pair[0].run_program(HoppingRead(), "v")
