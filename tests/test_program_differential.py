"""Differential tests: the one round body vs the seed per-vertex loop.

The round-based executor plus :class:`ShardSnapshotResolver` promises the
exact observable behavior of the seed sequential loop (kept as a test
reference in ``tests/reference_executor.py``) — same results, same read
set, same set of vertices visited — while resolving whole rounds per
shard against reused snapshots.  These tests run the library programs
both ways over seeded random multi-shard graphs at the same checkpoint
and compare; the rules the round body states once (same-round dedup, a
halt ends the round, a missing vertex does not observe it) are pinned
through :func:`run_round` directly.

What is deliberately NOT compared:

* ``vertices_visited``/``hops`` for programs declaring ``dedup_hops`` —
  same-round duplicate hops are dropped before resolution, so the raw
  visit count is lower by design (the distinct-visited set must match);
* per-shard ``vertices_read`` — the batched resolver serves cross-round
  revisits from its per-query vertex cache without a shard request, so
  the shard-side counter measures distinct resolutions, not visits.
"""

from __future__ import annotations

import pytest

from repro.bench.programs_bench import build_database
from repro.db import Weaver, WeaverConfig
from repro.errors import ProgramError
from repro.programs.framework import (
    NodeProgram,
    ProgramExecutor,
    ProgramStats,
    run_round,
)
from repro.programs.library import (
    Bfs,
    ClusteringCoefficient,
    CollectReachable,
    GetNode,
    PathDiscovery,
    Reachability,
    ShortestPath,
    params,
)
from repro.programs.routing import ShardSnapshotResolver
from repro.programs.state import ProgramContext

from .reference_executor import execute_sequential


def _seed_resolver(db, point):
    """The pre-optimization per-vertex closure: one fresh snapshot view
    (and cold comparison memo) per resolution."""

    def resolve(handle):
        shard_index = db._shard_of(handle)
        if shard_index is None:
            return None
        shard = db.shards[shard_index]
        shard.ensure_paged(handle)
        snapshot = shard.graph.at(point, memo_stats=shard.ordering.stats)
        if not snapshot.has_vertex(handle):
            return None
        return snapshot.vertex(handle)

    return resolve


def _run_both(db, make_program, start, point):
    """Execute the same program batched and sequentially at ``point``."""
    db._make_shards_ready(point)
    batched = ProgramExecutor().execute(
        make_program(),
        list(start),
        ShardSnapshotResolver(point, db._shard_of, db.shards, page_in=True),
        point,
    )
    sequential = execute_sequential(
        make_program(), list(start), _seed_resolver(db, point), point
    )
    return batched, sequential


def _assert_equivalent(batched, sequential, exact=False):
    assert batched.results == sequential.results
    assert batched.read_set == sequential.read_set
    assert sorted(batched.states) == sorted(sequential.states)
    assert batched.halted == sequential.halted
    if exact:
        # Without dedup the two paths visit hop-for-hop identically.
        assert batched.vertices_visited == sequential.vertices_visited
        assert batched.hops == sequential.hops


class BfsNoDedup(Bfs):
    name = "bfs_no_dedup"
    dedup_hops = False


@pytest.fixture(scope="module", params=[3, 21, 99])
def graph(request):
    db, handles = build_database(
        num_vertices=120,
        avg_degree=5,
        num_shards=3,
        num_gatekeepers=2,
        seed=request.param,
    )
    return db, handles, db.checkpoint()


CASES = [
    ("bfs", Bfs, lambda h: [(h[0], params(depth=0))], False),
    (
        "bfs_depth_limited",
        Bfs,
        lambda h: [(h[0], params(depth=0, max_depth=3))],
        False,
    ),
    ("bfs_no_dedup", BfsNoDedup, lambda h: [(h[0], params(depth=0))], True),
    ("collect", CollectReachable, lambda h: [(h[0], params())], False),
    (
        "reachable_hit",
        Reachability,
        lambda h: [(h[0], params(target=h[-1]))],
        False,
    ),
    (
        "reachable_miss",
        Reachability,
        lambda h: [(h[0], params(target="no-such-vertex"))],
        False,
    ),
    (
        "shortest_path",
        ShortestPath,
        lambda h: [(h[0], params(target=h[len(h) // 2], dist=0))],
        False,
    ),
    (
        "path_discovery",
        PathDiscovery,
        lambda h: [(h[0], params(target=h[-1]))],
        False,
    ),
    ("clustering", ClusteringCoefficient, lambda h: [(h[0], params())], True),
    ("get_node", GetNode, lambda h: [(h[0], None)], True),
]


@pytest.mark.parametrize(
    "prog, make_start, exact",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_library_programs_match_seed(graph, prog, make_start, exact):
    db, handles, point = graph
    batched, sequential = _run_both(db, prog, make_start(handles), point)
    _assert_equivalent(batched, sequential, exact=exact)


def test_dedup_only_trims_duplicate_visits(graph):
    """Dedup changes the visit count, never the distinct-visited set."""
    db, handles, point = graph
    start = [(handles[0], params(depth=0))]
    deduped, _ = _run_both(db, Bfs, start, point)
    plain, _ = _run_both(db, BfsNoDedup, start, point)
    assert deduped.results == plain.results
    assert deduped.read_set == plain.read_set
    assert sorted(deduped.states) == sorted(plain.states)
    assert deduped.vertices_visited <= plain.vertices_visited


def _linked_db():
    """A small hand-built graph whose edge handles we control."""
    db = Weaver(
        WeaverConfig(num_shards=3, num_gatekeepers=2, partitioner="hash")
    )
    tx = db.begin_transaction()
    for h in "abcdefg":
        tx.create_vertex(h)
    edges = {}
    for src, dst in [
        ("a", "b"), ("a", "c"), ("b", "d"),
        ("c", "e"), ("d", "f"), ("e", "g"),
    ]:
        edges[(src, dst)] = tx.create_edge(src, dst)
    tx.commit()
    return db, edges


def test_historical_snapshots_match_seed():
    """Both paths agree at every snapshot, and the snapshots differ."""
    db, edges = _linked_db()
    point1 = db.checkpoint()

    tx = db.begin_transaction()
    tx.delete_edge("b", edges[("b", "d")])
    tx.create_vertex("h")
    tx.create_edge("a", "h")
    tx.commit()
    point2 = db.checkpoint()

    start = [("a", params(depth=0))]
    old_batched, old_sequential = _run_both(db, Bfs, start, point1)
    _assert_equivalent(old_batched, old_sequential)
    new_batched, new_sequential = _run_both(db, Bfs, start, point2)
    _assert_equivalent(new_batched, new_sequential)

    # The mutation really separated the two cuts of the graph.
    assert "d" in old_batched.results and "h" not in old_batched.results
    assert "h" in new_batched.results and "d" not in new_batched.results


def test_run_program_drives_the_batched_path():
    """The production entry point executes in rounds, not sequentially,
    and still matches the seed loop."""
    db, _ = _linked_db()
    point = db.checkpoint()
    result = db.run_program(Bfs(), "a", params(depth=0), at=point)
    assert db.executor.stats.batch_rounds > 0
    assert result.rounds > 0

    _, sequential = _run_both(db, Bfs, [("a", params(depth=0))], point)
    assert result.results == sequential.results
    assert result.read_set == sequential.read_set


class HaltOnMissing(NodeProgram):
    """Emits every visible vertex; a missing one halts the program."""

    name = "halt_on_missing"
    dedup_hops = True

    def run(self, node, p, ctx):
        ctx.emit(node.handle)
        return ()

    def on_missing(self, handle, p, ctx):
        ctx.halt()


#: One round exercising every rule the round body states: a missing
#: vertex halts but does not end the round, the next visible entry
#: observes the halt and is the last to run, and the repeated hop to it
#: was dropped before anything resolved.
RULES_FRONTIER = [("ghost", None), ("b", None), ("b", None), ("c", None)]


def test_round_body_rules_through_run_round_and_the_executor():
    db, _ = _linked_db()
    point = db.checkpoint()
    db._make_shards_ready(point)

    stats = ProgramStats()
    ctx = ProgramContext(0, point)
    ran = []
    halted_at = run_round(
        HaltOnMissing(),
        list(RULES_FRONTIER),
        ShardSnapshotResolver(point, db._shard_of, db.shards).resolve_many,
        ctx,
        stats,
        lambda entry, node, hops: ran.append((entry[0], node is not None)),
    )
    assert ran == [("ghost", False), ("b", True)]
    assert halted_at == ("b", None)
    assert stats.dedup_hits == 1
    assert ctx.results == ["b"]
    assert ctx.read_set == {"ghost", "b"}

    # The executor adds nothing but its list exchange.
    result = ProgramExecutor().execute(
        HaltOnMissing(),
        list(RULES_FRONTIER),
        ShardSnapshotResolver(point, db._shard_of, db.shards),
        point,
    )
    assert (result.results, result.read_set) == (ctx.results, ctx.read_set)
    assert result.halted and result.rounds == 1
    assert result.vertices_visited == 1


class GhostEveryHop(NodeProgram):
    """Follows every edge and, from each vertex, one dangling one."""

    name = "ghost_every_hop"

    def run(self, node, p, ctx):
        return [(e.nbr, p) for e in node.neighbors] + [("ghost", p)]


def test_unknown_vertex_is_looked_up_once_per_query(monkeypatch):
    """A handle no shard owns reappears every round; only its first
    appearance may cost a placement lookup (a store read)."""
    db, _ = _linked_db()
    lookups = []
    lookup = db.mapping.lookup
    monkeypatch.setattr(
        db.mapping, "lookup",
        lambda vertex, tx=None: lookups.append(vertex) or lookup(vertex, tx),
    )
    result = db.run_program(GhostEveryHop(), "a")
    assert result.rounds >= 3
    assert "ghost" in result.read_set
    assert lookups.count("ghost") == 1


@pytest.mark.parametrize("budget", [1, 5])
def test_visit_budget_stops_before_the_visit_past_it(budget):
    """Six entries in round two: a budget of 1 is spent before that
    round, a budget of 5 runs out in the middle of it."""
    db, _ = _linked_db()
    tx = db.begin_transaction()
    for dst in "defg":
        tx.create_edge("a", dst)
    tx.commit()
    db.executor._max_visits = budget
    with pytest.raises(ProgramError, match="visit budget exhausted"):
        db.run_program(CollectReachable(), "a", params())


class TestProgramCacheWithHistory:
    """Program cache × ``at=``: snapshot identity is part of the key."""

    def _db(self):
        db = Weaver(
            WeaverConfig(
                num_shards=2,
                num_gatekeepers=2,
                partitioner="hash",
                enable_program_cache=True,
            )
        )
        tx = db.begin_transaction()
        for h in "abc":
            tx.create_vertex(h)
        tx.create_edge("a", "b")
        tx.create_edge("b", "c")
        tx.commit()
        point1 = db.checkpoint()
        tx = db.begin_transaction()
        tx.create_vertex("d")
        tx.create_edge("a", "d")
        tx.commit()
        return db, point1

    def test_cached_current_result_never_serves_historical(self):
        db, point1 = self._db()
        prm = params(depth=0)
        current = db.run_program(Bfs(), "a", prm, use_cache=True)
        assert "d" in current.results

        # Same program/start/params, earlier snapshot: must re-execute.
        historical = db.run_program(
            Bfs(), "a", prm, at=point1, use_cache=True
        )
        assert "d" not in historical.results
        assert set(historical.results) == {"a", "b", "c"}

        # Each snapshot now hits its own entry, and neither cross-serves.
        assert db.run_program(
            Bfs(), "a", prm, at=point1, use_cache=True
        ).results == historical.results
        assert db.run_program(
            Bfs(), "a", prm, use_cache=True
        ).results == current.results

    def test_cache_hit_counts_and_traces_as_a_run(self):
        db, _ = self._db()
        prm = params(depth=0)
        first = db.run_program(Bfs(), "a", prm, use_cache=True)
        runs_before = db.programs_run
        hit = db.run_program(Bfs(), "a", prm, use_cache=True)
        assert hit.results == first.results
        assert db.programs_run == runs_before + 1
        completes = db.tracer.spans(kind="program.complete")
        assert completes[-1].attr("cache_hit") is True
        # The original (miss) completion carried no cache_hit marker.
        assert completes[-2].attr("cache_hit") is None
