"""Differential tests: shard-resident execution vs the executor.

The resident engine promises the exact observable behavior of the
batched client-side executor — same results, same read set, same halt
reason, hop-for-hop identical visit counts — while running every round
at the shards and forwarding frontiers peer-to-peer.  The executor is
the in-process :class:`Weaver`'s: every comparison runs the same program
on a :class:`ProcessWeaver` and on an identically loaded ``Weaver``
(the simulated host of the same engine is held the same way in
``test_sim_deployment.py``).

Covered axes: every ``PROGRAM_REGISTRY`` class (the parametrised ones
built with non-default arguments) × seeded multi-shard graphs ×
historical ``at=`` reads × the shard-side program cache × a
SIGKILL/recover epoch boundary × what the deployment refuses to ship.
``TestResidentSmoke`` doubles as the CI transport-smoke entry (2
workers, BFS + cached re-run, trace-chain assertion).
"""

from __future__ import annotations

import contextlib
import random

import pytest

from repro.cluster.process import ProcessWeaver
from repro.db import Weaver, WeaverConfig
from repro.errors import ProgramError
from repro.programs.analytics import (
    ComponentSize,
    DegreeHistogram,
    KHopNeighborhood,
    LabelPropagation,
    PushPageRank,
    TriangleCount,
    WeightedShortestPath,
)
from repro.programs.library import (
    PROGRAM_REGISTRY,
    Bfs,
    BlockRender,
    ClusteringCoefficient,
    CollectReachable,
    CountEdges,
    GetEdges,
    GetNode,
    PathDiscovery,
    Reachability,
    ShortestPath,
    params,
)


def build_graph(db, num_vertices, avg_degree, seed):
    """Seeded random graph with a ``cost`` on every edge, loaded through
    ordinary transactions."""
    rng = random.Random(seed)
    costs = random.Random(seed + 1)
    handles = [f"v{i}" for i in range(num_vertices)]
    tx = db.begin_transaction()
    for handle in handles:
        tx.create_vertex(handle)
    tx.commit()
    tx = db.begin_transaction()
    for src in handles:
        for _ in range(avg_degree):
            dst = handles[rng.randrange(num_vertices)]
            if dst != src:
                edge = tx.create_edge(src, dst)
                tx.set_edge_property(
                    src, edge, "cost", float(costs.randrange(1, 9))
                )
    tx.commit()
    db.drain()
    return handles


def _run_both(pair, make_program, start, **kwargs):
    """Execute the same program at the shards and in the reference
    executor; ``pair`` is ``((ProcessWeaver, at), (Weaver, at))``."""
    return tuple(
        db.run_program(make_program(), list(start), at=point, **kwargs)
        for db, point in pair
    )


def _assert_equivalent(resident, reference):
    assert resident.results == reference.results
    assert resident.read_set == reference.read_set
    assert resident.states == reference.states
    assert resident.halted == reference.halted
    # Both paths apply the same same-round hop dedup, so the raw counts
    # match exactly, not just the distinct-visited sets.
    assert resident.vertices_visited == reference.vertices_visited
    assert resident.hops == reference.hops


def hash_config(**overrides):
    settings = dict(num_shards=3, num_gatekeepers=2, partitioner="hash")
    settings.update(overrides)
    return WeaverConfig(**settings)


@pytest.fixture(scope="module", params=[3, 21, 99])
def graph(request):
    """``(pair, handles)``: one seeded graph in a ``ProcessWeaver`` and
    in the reference ``Weaver``, each with a checkpoint of its own."""
    reference = Weaver(hash_config(enable_program_cache=True))
    with ProcessWeaver(hash_config(enable_program_cache=True)) as db:
        for deployment in (db, reference):
            handles = build_graph(deployment, 60, 4, seed=request.param)
        yield (
            (db, db.checkpoint()), (reference, reference.checkpoint())
        ), handles


CASES = [
    ("bfs", Bfs, lambda h: [(h[0], params(depth=0))]),
    (
        "bfs_depth_limited",
        Bfs,
        lambda h: [(h[0], params(depth=0, max_depth=3))],
    ),
    ("collect", CollectReachable, lambda h: [(h[0], params())]),
    (
        "reachable_hit",
        Reachability,
        lambda h: [(h[0], params(target=h[-1]))],
    ),
    (
        "reachable_miss",
        Reachability,
        lambda h: [(h[0], params(target="no-such-vertex"))],
    ),
    (
        "shortest_path",
        ShortestPath,
        lambda h: [(h[0], params(target=h[len(h) // 2], dist=0))],
    ),
    (
        "path_discovery",
        PathDiscovery,
        lambda h: [(h[0], params(target=h[-1]))],
    ),
    ("clustering", ClusteringCoefficient, lambda h: [(h[0], params())]),
    ("get_node", GetNode, lambda h: [(h[0], None)]),
    (
        "multi_start",
        Bfs,
        lambda h: [(h[0], params(depth=0)), (h[-1], params(depth=0))],
    ),
    ("no_start", Bfs, lambda h: []),
    ("get_edges", GetEdges, lambda h: [(h[0], params(edge_prop="cost"))]),
    ("count_edges", CountEdges, lambda h: [(h[0], None)]),
    ("block_render", BlockRender, lambda h: [(h[0], params())]),
    ("k_hop", KHopNeighborhood, lambda h: [(h[0], params(k=2))]),
    ("label_propagation", LabelPropagation, lambda h: [(h[0], params())]),
    ("component_size", ComponentSize, lambda h: [(h[0], None)]),
    ("triangle_count", TriangleCount, lambda h: [(h[0], params())]),
    ("degree_histogram", DegreeHistogram, lambda h: [(h[0], params(k=2))]),
    # The two whose instances carry state, built away from the defaults.
    (
        "weighted_shortest_path",
        lambda: WeightedShortestPath("cost"),
        lambda h: [(h[0], params(target=h[-1]))],
    ),
    (
        "push_pagerank",
        lambda: PushPageRank(damping=0.6, epsilon=1e-2),
        lambda h: [(h[0], params(mass=1.0))],
    ),
]


def test_the_cases_cover_the_registry():
    assert {make().name for _id, make, _start in CASES} == set(
        PROGRAM_REGISTRY
    )


@pytest.mark.parametrize(
    "prog, make_start",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_library_programs_match_the_executor(graph, prog, make_start):
    pair, handles = graph
    resident, reference = _run_both(pair, prog, make_start(handles))
    _assert_equivalent(resident, reference)


def test_instance_state_reaches_the_shards(graph):
    """The parity above would also hold if both sides dropped ``init``:
    the weights really change the answer."""
    ((db, point), _reference), handles = graph
    start = [(handles[0], params(target=handles[-1]))]
    by_cost = db.run_program(WeightedShortestPath("cost"), start, at=point)
    by_hops = db.run_program(WeightedShortestPath(), start, at=point)
    assert WeightedShortestPath.distance(by_cost) > (
        WeightedShortestPath.distance(by_hops)
    )


def test_resident_path_actually_ran_at_the_shards(graph):
    """The parity above is only meaningful if the process runs really
    bypassed the client-side executor."""
    ((db, point), _reference), handles = graph
    before = db.executor.stats.batch_rounds
    result = db.run_program(Bfs(), handles[0], params(depth=0), at=point)
    assert result.rounds > 0
    assert db.executor.stats.batch_rounds == before  # no client rounds
    snap = db.metrics.snapshot()
    assert snap["program.resident.programs_coordinated"] > 0
    assert snap["program.resident.rounds_executed"] > 0
    # Cross-shard traversal on a 3-shard hash partition must forward.
    assert snap["program.resident.forwards_sent"] > 0


def test_visit_budget_is_enforced_inside_the_round():
    """A hub fans out to 60 leaves with 10 visits allowed: the program
    fails with the executor's error, and no worker runs its share of
    the exploding round in full."""
    budget = 10
    with ProcessWeaver(hash_config(num_shards=2)) as db:
        tx = db.begin_transaction()
        hub = tx.create_vertex("hub")
        for i in range(60):
            tx.create_edge(hub, tx.create_vertex(f"leaf{i}"))
        tx.commit()
        db.executor._max_visits = budget
        with pytest.raises(ProgramError, match="^visit budget exhausted$"):
            db.run_program(CollectReachable(), hub, params())
        for name in ("shard0", "shard1"):
            stats = db.transport.request("client", name, "stats", None)
            assert stats["program.resident.entries_processed"] <= budget
        # The deployment still serves programs afterwards.
        db.executor._max_visits = 1000
        assert len(
            db.run_program(CollectReachable(), hub, params()).results
        ) == 61


# -- byte keys, column frames and requested counters, end to end ----------

POOL = [f"n{i}" for i in range(24)]


def split_pool(shard_of):
    """``(root, here, there)``: the pool's first vertex, the others its
    shard owns, and the ones some other shard owns."""
    root, rest = POOL[0], POOL[1:]
    here = [h for h in rest if shard_of(h) == shard_of(root)]
    there = [h for h in rest if shard_of(h) != shard_of(root)]
    assert len(here) >= 5 and len(there) >= 5
    return root, here, there


def halting_edges(shard_of):
    """``(edges, root, target, unread)`` for a ``Reachability`` that
    halts in the middle of round 2, on a shard the root does not live
    on: three middles fan out to leaves on both shards, the target is
    the fourth of seven.  The root's shard has no halt of its own, so
    it runs its whole slice; the entries ordered after the target
    (``unread``) count only if halt filtering compares byte keys
    wrongly."""
    root, here, there = split_pool(shard_of)
    target = there[0]
    leaves = {
        here[0]: [here[2], there[2]],
        there[1]: [there[3], target, here[3]],
        here[1]: [here[4], there[4]],
    }
    edges = [(root, middle) for middle in leaves] + [
        (middle, leaf) for middle, hops in leaves.items() for leaf in hops
    ]
    return edges, root, target, {here[3], here[4], there[4]}


def pagerank():
    """Every push is a fresh params object (one per parent, shared by
    that parent's hops), and vertices are revisited until the residual
    dies out."""
    return PushPageRank(epsilon=1e-3)


def pagerank_edges(shard_of):
    """``(edges, root)`` of a small strongly connected graph over both
    shards."""
    root, here, there = split_pool(shard_of)
    ring = [root, there[0], here[0], there[1], here[1], there[2]]
    edges = list(zip(ring, ring[1:] + ring[:1]))
    edges += [(root, here[0]), (root, there[1]), (there[0], root),
              (here[1], there[0]), (there[2], here[0])]
    return edges, root


def load(db, edges):
    tx = db.begin_transaction()
    for index, (src, dst) in enumerate(edges):
        tx.create_edge(src, dst, f"edge{index}")
    tx.commit()
    db.drain()


@contextlib.contextmanager
def pooled(cls, **config):
    """A deployment holding the pool's vertices, no edges yet."""
    db = cls(WeaverConfig(
        num_shards=2, num_gatekeepers=2, partitioner="hash", **config
    ))
    try:
        tx = db.begin_transaction()
        for handle in POOL:
            tx.create_vertex(handle)
        tx.commit()
        db.drain()
        yield db
    finally:
        if cls is ProcessWeaver:
            db.close()


def entries_processed(db):
    return sum(
        db.transport.request("client", name, "stats", None)[
            "program.resident.entries_processed"
        ]
        for name in ("shard0", "shard1")
    )


class TestKeysColumnsAndCounters:
    """One ``Weaver`` (the reference executor, which builds no order
    key at all) and one 2-worker ``ProcessWeaver`` per case; the 3-shard
    ``SimulatedWeaver`` twins are in ``test_sim_deployment.py``."""

    def test_halt_on_the_other_shard_filters_by_byte_key(self):
        with pooled(Weaver) as reference_db, pooled(ProcessWeaver) as db:
            edges, root, target, unread = halting_edges(db._shard_of)
            load(reference_db, edges)
            load(db, edges)
            prm = params(target=target)
            reference = reference_db.run_program(Reachability(), root, prm)
            assert reference.results == [True] and reference.halted
            assert reference.vertices_visited == 8
            assert not reference.read_set & unread
            before = entries_processed(db)
            result = db.run_program(Reachability(), root, prm)
            _assert_equivalent(result, reference)
            # The root's shard ran entries ordered after the halt; the
            # gather dropped them.
            assert entries_processed(db) - before > result.vertices_visited

    def test_revisits_with_a_params_object_per_parent(self):
        with pooled(Weaver) as reference_db, pooled(ProcessWeaver) as db:
            edges, root = pagerank_edges(db._shard_of)
            load(reference_db, edges)
            load(db, edges)
            reference = reference_db.run_program(
                pagerank(), root, params(mass=1.0)
            )
            assert reference.vertices_visited > 10 * len(reference.read_set)
            result = db.run_program(pagerank(), root, params(mass=1.0))
            # Same pushes in the same order: the floats are identical.
            _assert_equivalent(result, reference)
            assert PushPageRank.scores(result) == PushPageRank.scores(
                reference
            )
            stats = db.metrics.snapshot()
            assert stats["program.resident.forwards_sent"] > 10

    @pytest.mark.parametrize("deployment", [Weaver, ProcessWeaver])
    def test_cached_rerun_is_validated_then_invalidated_remotely(
        self, deployment
    ):
        with pooled(deployment, enable_program_cache=True) as db:
            root, here, there = split_pool(db._shard_of)
            load(db, [(root, there[0]), (there[0], here[0])])
            prm = params(depth=0)

            def run():
                result = db.run_program(Bfs(), root, prm, use_cache=True)
                last = db.tracer.spans(kind="program.complete")[-1]
                return result, last.attr("cache_hit")

            first, hit = run()
            assert (first.results, hit) == ([root, there[0], here[0]], None)
            again, hit = run()
            assert (again.results, hit) == (first.results, True)
            assert again.read_set == first.read_set
            if deployment is ProcessWeaver:
                # The fragments carried their counters (asked for only
                # because a cache reads them), and the hit was vouched
                # for by the remote shard.
                stats = db.metrics.snapshot()
                assert stats["program.resident.cache_hits"] == 1
                assert stats["program.resident.counter_checks"] >= 2
            # A write the coordinating shard never sees: only the
            # remote fragment's counters can refute the entry.
            load(db, [(there[0], there[1])])
            fresh, hit = run()
            assert hit is None
            assert fresh.results == [root, there[0], here[0], there[1]]
            if deployment is ProcessWeaver:
                stats = db.metrics.snapshot()
                assert stats["program.resident.cache_invalidations"] == 1


class TestHistoricalReads:
    """Resident ≡ executor at every snapshot — and the snapshots are
    really distinct cuts of the graph."""

    @staticmethod
    def two_cuts(db):
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
        point1 = db.checkpoint()

        tx = db.begin_transaction()
        tx.delete_edge("b", edges[("b", "d")])
        tx.create_vertex("h")
        tx.create_edge("a", "h")
        tx.commit()
        return point1, db.checkpoint()

    def test_both_paths_agree_at_both_checkpoints(self):
        reference_db = Weaver(hash_config())
        with ProcessWeaver(hash_config()) as db:
            cuts = list(zip(self.two_cuts(db), self.two_cuts(reference_db)))
            start = [("a", params(depth=0))]
            (old, old_reference), (new, new_reference) = (
                _run_both(
                    ((db, point), (reference_db, reference_point)),
                    Bfs, start,
                )
                for point, reference_point in cuts
            )
            _assert_equivalent(old, old_reference)
            _assert_equivalent(new, new_reference)

            # The mutation separated the two cuts at the shards just as
            # it does for the executor.
            assert "d" in old.results
            assert "h" not in old.results
            assert "h" in new.results
            assert "d" not in new.results


class TestResidentProgramCache:
    """Section 4.6 shard-side: memoized results revalidate against
    change counters on every fragment before being served."""

    def _db(self):
        config = WeaverConfig(
            num_shards=2,
            num_gatekeepers=2,
            partitioner="hash",
            enable_program_cache=True,
        )
        db = ProcessWeaver(config)
        tx = db.begin_transaction()
        for h in "abc":
            tx.create_vertex(h)
        tx.create_edge("a", "b")
        tx.create_edge("b", "c")
        tx.commit()
        db.drain()
        return db

    def test_cache_hit_matches_and_is_traced(self):
        with self._db() as db:
            prm = params(depth=0)
            first = db.run_program(Bfs(), "a", prm, use_cache=True)
            runs_before = db.programs_run
            hit = db.run_program(Bfs(), "a", prm, use_cache=True)
            assert hit.results == first.results
            assert hit.read_set == first.read_set
            assert db.programs_run == runs_before + 1
            completes = db.tracer.spans(kind="program.complete")
            assert completes[-1].attr("cache_hit") is True
            assert completes[-2].attr("cache_hit") is None
            snap = db.metrics.snapshot()
            assert snap["program.resident.cache_hits"] >= 1

    def test_write_to_read_set_invalidates(self):
        with self._db() as db:
            prm = params(depth=0)
            db.run_program(Bfs(), "a", prm, use_cache=True)
            # Mutate a vertex the program read: its shard's change
            # counter moves, so revalidation must refuse the entry.
            tx = db.begin_transaction()
            tx.create_vertex("d")
            tx.create_edge("b", "d")
            tx.commit()
            db.drain()
            fresh = db.run_program(Bfs(), "a", prm, use_cache=True)
            assert "d" in fresh.results
            completes = db.tracer.spans(kind="program.complete")
            assert completes[-1].attr("cache_hit") is None

    def test_historical_entries_keyed_by_snapshot(self):
        with self._db() as db:
            point1 = db.checkpoint()
            tx = db.begin_transaction()
            tx.create_vertex("d")
            tx.create_edge("a", "d")
            tx.commit()
            db.drain()
            prm = params(depth=0)
            current = db.run_program(Bfs(), "a", prm, use_cache=True)
            assert "d" in current.results
            historical = db.run_program(
                Bfs(), "a", prm, at=point1, use_cache=True
            )
            assert set(historical.results) == {"a", "b", "c"}
            # Each snapshot serves its own entry; neither cross-serves.
            assert db.run_program(
                Bfs(), "a", prm, at=point1, use_cache=True
            ).results == historical.results
            assert db.run_program(
                Bfs(), "a", prm, use_cache=True
            ).results == current.results


class TestKillRecoverParity:
    """The differential holds across a SIGKILL/recover epoch boundary:
    the replacement worker rejoins the peer mesh and the shards still
    match the executor on the recovered partition."""

    def test_resident_matches_the_executor_after_recovery(self):
        reference_db = Weaver(hash_config())
        with ProcessWeaver(hash_config()) as db:
            for deployment in (db, reference_db):
                handles = build_graph(deployment, 30, 3, seed=7)
            reference_point = reference_db.checkpoint()
            start = [(handles[0], params(depth=0))]

            def run_both():
                return _run_both(
                    ((db, db.checkpoint()), (reference_db, reference_point)),
                    Bfs, start,
                )

            before, reference = run_both()
            _assert_equivalent(before, reference)

            db.kill_shard_worker(0)
            db.recover_shard(0)
            assert db.recoveries == 1

            # The graph is static, so the recovered partition must
            # reproduce the pre-kill answer bit for bit.
            after, reference = run_both()
            _assert_equivalent(after, reference)
            assert after.results == before.results
            assert after.read_set == before.read_set


class TestResidentSmoke:
    """CI transport-smoke entry: 2 workers, BFS + cached re-run, and
    the trace chain crosses the process boundary intact."""

    def test_bfs_cached_rerun_and_trace_chain(self):
        config = WeaverConfig(
            num_shards=2,
            num_gatekeepers=2,
            partitioner="hash",
            enable_program_cache=True,
        )
        with ProcessWeaver(config) as db:
            tx = db.begin_transaction()
            handles = [tx.create_vertex(f"s{i}") for i in range(12)]
            for i in range(1, 12):
                tx.create_edge(handles[(i - 1) // 2], handles[i])
            tx.commit()
            db.drain()

            prm = params(depth=0)
            result = db.run_program(Bfs(), "s0", prm, use_cache=True)
            assert sorted(result.results) == sorted(
                f"s{i}" for i in range(12)
            )

            # The whole pipeline rode one trace id: submit and stamp at
            # the client, rounds at the workers, completion back home.
            tid = db.tracer.spans(kind="program.submit")[-1].trace_id
            chain = db.tracer.spans(trace_id=tid)
            kinds = [span.kind for span in chain]
            assert kinds[0] == "program.submit"
            assert "program.stamp" in kinds
            assert kinds[-1] == "program.complete"
            rounds = [s for s in chain if s.kind == "program.round"]
            assert rounds, "no worker round spans crossed the wire"
            assert all(
                span.node in ("shard0", "shard1") for span in rounds
            )

            # Cached re-run: served from the shard-side cache.
            hit = db.run_program(Bfs(), "s0", prm, use_cache=True)
            assert hit.results == result.results
            last = db.tracer.spans(kind="program.complete")[-1]
            assert last.attr("cache_hit") is True
