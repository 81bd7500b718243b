"""The node-program framework and stock program library."""

import pytest

from repro.core.vclock import VectorClock
from repro.errors import ProgramError
from repro.graph.mvgraph import MultiVersionGraph
from repro.programs import (
    Bfs,
    BlockRender,
    ClusteringCoefficient,
    CollectReachable,
    CountEdges,
    GetEdges,
    GetNode,
    NodeProgram,
    PathDiscovery,
    ProgramExecutor,
    Reachability,
    ShortestPath,
    params,
)
from repro.programs.state import ProgramContext, WatermarkRegistry


@pytest.fixture
def world():
    """A bare graph + resolver: a -> b -> c, a -> c, c -> d."""
    clock = VectorClock(1, 0)
    graph = MultiVersionGraph()
    for v in "abcd":
        graph.create_vertex(v, clock.tick())
    graph.create_edge("ab", "a", "b", clock.tick())
    graph.create_edge("bc", "b", "c", clock.tick())
    graph.create_edge("ac", "a", "c", clock.tick())
    graph.create_edge("cd", "c", "d", clock.tick())
    ts = clock.tick()
    view = graph.at(ts)

    def resolve(handle):
        return view.vertex(handle) if view.has_vertex(handle) else None

    return graph, clock, ts, resolve


def run(program, start, start_params, resolve, ts):
    return ProgramExecutor().execute(
        program, [(start, start_params)], resolve, ts
    )


class TestExecutor:
    def test_single_vertex_program(self, world):
        _, _, ts, resolve = world
        result = run(GetNode(), "a", None, resolve, ts)
        assert result.value["handle"] == "a"
        assert result.vertices_visited == 1

    def test_prog_state_persists_across_visits(self, world):
        _, _, ts, resolve = world

        class CountVisits(NodeProgram):
            returns_state = True

            def init_state(self):
                return {"n": 0}

            def run(self, node, p, ctx):
                node.prog_state["n"] += 1
                if node.prog_state["n"] == 1:
                    return [(node.handle, p), (node.handle, p)]
                return ()

        result = run(CountVisits(), "a", None, resolve, ts)
        assert result.states["a"]["n"] == 3

    def test_missing_vertex_calls_hook(self, world):
        _, _, ts, resolve = world
        missing = []

        class Probe(NodeProgram):
            def run(self, node, p, ctx):
                return [("ghost", p)]

            def on_missing(self, handle, p, ctx):
                missing.append(handle)

        run(Probe(), "a", None, resolve, ts)
        assert missing == ["ghost"]

    def test_bad_next_hop_raises(self, world):
        _, _, ts, resolve = world

        class Bad(NodeProgram):
            def run(self, node, p, ctx):
                return ["not-a-tuple"]

        with pytest.raises(ProgramError):
            run(Bad(), "a", None, resolve, ts)

    def test_visit_budget_enforced(self, world):
        _, _, ts, resolve = world

        class Loop(NodeProgram):
            def run(self, node, p, ctx):
                return [(node.handle, p)]

        executor = ProgramExecutor(max_visits=10)
        with pytest.raises(ProgramError):
            executor.execute(Loop(), [("a", None)], resolve, ts)

    def test_halt_stops_frontier(self, world):
        _, _, ts, resolve = world

        class HaltAtB(NodeProgram):
            def run(self, node, p, ctx):
                ctx.emit(node.handle)
                if node.handle == "b":
                    ctx.halt()
                return [(e.nbr, p) for e in node.neighbors]

        result = run(HaltAtB(), "a", None, resolve, ts)
        assert result.halted
        assert "d" not in result.results

    def test_read_set_collected(self, world):
        _, _, ts, resolve = world
        result = run(Bfs(), "a", params(depth=0), resolve, ts)
        assert result.read_set == {"a", "b", "c", "d"}

    def test_value_requires_single_result(self, world):
        _, _, ts, resolve = world
        result = run(Bfs(), "a", params(depth=0), resolve, ts)
        with pytest.raises(ProgramError):
            result.value


class TestLibraryPrograms:
    def test_bfs_full(self, world):
        _, _, ts, resolve = world
        result = run(Bfs(), "a", params(depth=0), resolve, ts)
        assert result.results == ["a", "b", "c", "d"]

    def test_bfs_depth_limit(self, world):
        _, _, ts, resolve = world
        result = run(Bfs(), "a", params(depth=0, max_depth=1), resolve, ts)
        assert result.results == ["a", "b", "c"]

    def test_get_edges_shapes(self, world):
        _, _, ts, resolve = world
        result = run(GetEdges(), "a", params(), resolve, ts)
        assert {e["nbr"] for e in result.value} == {"b", "c"}

    def test_count_edges(self, world):
        _, _, ts, resolve = world
        assert run(CountEdges(), "a", params(), resolve, ts).value == 2

    def test_reachability_found(self, world):
        _, _, ts, resolve = world
        result = run(Reachability(), "a", params(target="d"), resolve, ts)
        assert result.results == [True]

    def test_reachability_not_found(self, world):
        _, _, ts, resolve = world
        result = run(Reachability(), "b", params(target="a"), resolve, ts)
        assert result.results == []

    def test_shortest_path(self, world):
        _, _, ts, resolve = world
        result = run(
            ShortestPath(), "a", params(target="d", dist=0), resolve, ts
        )
        assert result.results == [2]  # a -> c -> d

    def test_path_discovery_finds_existing_path(self, world):
        _, _, ts, resolve = world
        result = run(
            PathDiscovery(), "a", params(target="d", path=()), resolve, ts
        )
        path = result.results[0]
        assert path[0] == "a" and path[-1] == "d"
        # Every consecutive pair must be a real edge at the snapshot.
        edges = {("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")}
        assert all(pair in edges for pair in zip(path, path[1:]))

    def test_collect_reachable(self, world):
        _, _, ts, resolve = world
        result = run(CollectReachable(), "b", None, resolve, ts)
        assert set(result.results) == {"b", "c", "d"}

    def test_clustering_coefficient_aggregate(self, world):
        _, _, ts, resolve = world
        result = run(
            ClusteringCoefficient(), "a", params(phase="center"), resolve, ts
        )
        # a's neighbours are {b, c}; one edge (b->c) among them; k=2.
        assert ClusteringCoefficient.aggregate(result) == pytest.approx(0.5)

    def test_block_render(self, world):
        graph, clock, _, _ = world
        graph.create_vertex("blk", clock.tick())
        graph.create_edge("t1", "blk", "a", clock.tick())
        graph.create_edge("t2", "blk", "b", clock.tick())
        ts = clock.tick()
        view = graph.at(ts)

        def resolve(handle):
            return view.vertex(handle) if view.has_vertex(handle) else None

        result = run(BlockRender(), "blk", params(phase="block"), resolve, ts)
        assert result.results[0]["n_tx"] == 2
        assert len(result.results) == 3


class TestProgramContext:
    def test_emit_and_results(self):
        ctx = ProgramContext(1, None)
        ctx.emit("x")
        assert ctx.results == ["x"]


class TestWatermarkRegistry:
    def make_ts(self, clock_values):
        from repro.core.vclock import VectorTimestamp

        return VectorTimestamp(0, tuple(clock_values), 0)

    def test_watermark_is_oldest_active(self):
        registry = WatermarkRegistry()
        registry.start(1, self.make_ts([5, 5]))
        registry.start(2, self.make_ts([2, 2]))
        assert registry.watermark() == self.make_ts([2, 2])

    def test_watermark_fallback_when_idle(self):
        registry = WatermarkRegistry()
        fallback = self.make_ts([9, 9])
        assert registry.watermark(fallback) == fallback

    def test_finish_removes(self):
        registry = WatermarkRegistry()
        registry.start(1, self.make_ts([1, 1]))
        registry.finish(1)
        assert registry.watermark() is None
        assert registry.completed == 1

    def test_len(self):
        registry = WatermarkRegistry()
        registry.start(1, self.make_ts([1, 1]))
        assert len(registry) == 1
