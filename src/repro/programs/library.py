"""Stock node programs: the queries the paper's evaluation runs.

Includes the vertex-local TAO operations (get_node, get_edges,
count_edges — Table 1 and Fig 12), traversal queries (BFS / reachability —
Figs 1, 11), local clustering coefficient (Fig 13), and the CoinGraph
block-render program (Figs 7, 8), plus generic path discovery used by the
network-topology example.

:data:`PROGRAM_REGISTRY` names every class here and in
:mod:`~repro.programs.analytics`: the deployments whose shards are not
in the client's process run a program only by rebuilding it there from
``(name, init)``, so the registry is the set of programs they run.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Optional

from .framework import NodeProgram


class GetNode(NodeProgram):
    """Read one vertex: its properties and out-degree (TAO get_node)."""

    name = "get_node"

    def run(self, node, params, ctx):
        ctx.emit(
            {
                "handle": node.handle,
                "properties": node.properties(),
                "out_degree": node.out_degree(),
            }
        )
        return ()


class GetEdges(NodeProgram):
    """Read a vertex's out-edges, optionally filtered by a property key
    (TAO get_edges / assoc_get)."""

    name = "get_edges"

    def run(self, node, params, ctx):
        wanted: Optional[str] = getattr(params, "edge_prop", None)
        edges = []
        for edge in node.neighbors:
            if wanted is not None and not edge.check(wanted):
                continue
            edges.append(
                {
                    "handle": edge.handle,
                    "nbr": edge.nbr,
                    "properties": edge.properties(),
                }
            )
        ctx.emit(edges)
        return ()


class CountEdges(NodeProgram):
    """Count a vertex's out-edges (TAO assoc_count)."""

    name = "count_edges"

    def run(self, node, params, ctx):
        wanted: Optional[str] = getattr(params, "edge_prop", None)
        if wanted is None:
            ctx.emit(node.out_degree())
        else:
            ctx.emit(sum(1 for e in node.neighbors if e.check(wanted)))
        return ()


class Bfs(NodeProgram):
    """The paper's Fig 3 program: BFS over edges carrying a property.

    Emits each visited vertex handle in visit order.  ``params`` may carry
    ``edge_prop`` (only traverse matching edges) and ``max_depth``.
    """

    name = "bfs"
    # Revisits are no-ops (visited bit), so same-round duplicate hops
    # with identical params can be dropped before resolution.
    dedup_hops = True

    def init_state(self):
        return SimpleNamespace(visited=False)

    def run(self, node, params, ctx):
        if node.prog_state.visited:
            return ()
        node.prog_state.visited = True
        ctx.emit(node.handle)
        depth = getattr(params, "depth", 0)
        max_depth = getattr(params, "max_depth", None)
        if max_depth is not None and depth >= max_depth:
            return ()
        edge_prop = getattr(params, "edge_prop", None)
        hops = []
        next_params = SimpleNamespace(
            edge_prop=edge_prop, depth=depth + 1, max_depth=max_depth
        )
        for edge in node.neighbors:
            if edge_prop is not None and not edge.check(edge_prop):
                continue
            hops.append((edge.nbr, next_params))
        return hops


class Reachability(NodeProgram):
    """Is ``params.target`` reachable?  Emits True and halts on success;
    an empty result set means unreachable (Fig 11's workload)."""

    name = "reachability"
    dedup_hops = True

    def init_state(self):
        return SimpleNamespace(visited=False)

    def run(self, node, params, ctx):
        if node.handle == params.target:
            ctx.emit(True)
            ctx.halt()
            return ()
        if node.prog_state.visited:
            return ()
        node.prog_state.visited = True
        return [(edge.nbr, params) for edge in node.neighbors]


class ShortestPath(NodeProgram):
    """Unweighted shortest path length via BFS ordering.

    Emits the distance when the target is first reached (which, in BFS
    visit order, is minimal).
    """

    name = "shortest_path"
    dedup_hops = True

    def init_state(self):
        return SimpleNamespace(dist=None)

    def run(self, node, params, ctx):
        dist = getattr(params, "dist", 0)
        if node.prog_state.dist is not None:
            return ()
        node.prog_state.dist = dist
        if node.handle == params.target:
            ctx.emit(dist)
            ctx.halt()
            return ()
        next_params = SimpleNamespace(target=params.target, dist=dist + 1)
        return [(edge.nbr, next_params) for edge in node.neighbors]


class PathDiscovery(NodeProgram):
    """Find one path to ``params.target``; emits the vertex list.

    The network-controller motivating example (Fig 1): under transactions
    the returned path always existed at the snapshot, never a chimera of
    pre- and post-update states.
    """

    name = "path_discovery"
    # Duplicate (vertex, params) hops imply identical inbound paths;
    # dropping them cannot change which path is discovered first.
    dedup_hops = True

    def init_state(self):
        return SimpleNamespace(visited=False)

    def run(self, node, params, ctx):
        path = list(getattr(params, "path", ())) + [node.handle]
        if node.handle == params.target:
            ctx.emit(path)
            ctx.halt()
            return ()
        if node.prog_state.visited:
            return ()
        node.prog_state.visited = True
        edge_prop = getattr(params, "edge_prop", None)
        hops = []
        for edge in node.neighbors:
            if edge_prop is not None and not edge.check(edge_prop):
                continue
            hops.append(
                (
                    edge.nbr,
                    SimpleNamespace(
                        target=params.target,
                        path=tuple(path),
                        edge_prop=edge_prop,
                    ),
                )
            )
        return hops


class ClusteringCoefficient(NodeProgram):
    """Local clustering coefficient (the Fig 13 shard-scaling workload).

    Fans out one hop from the centre to each neighbour, which reports how
    many of its own out-edges stay inside the neighbour set; the query
    "returns to the original vertex" in aggregate form via
    :meth:`aggregate`.
    """

    name = "clustering_coefficient"

    def run(self, node, params, ctx):
        phase = getattr(params, "phase", "center")
        if phase == "center":
            neighbors = frozenset(e.nbr for e in node.neighbors)
            ctx.emit(("k", len(neighbors)))
            if len(neighbors) < 2:
                return ()
            fan_params = SimpleNamespace(phase="count", members=neighbors)
            return [(nbr, fan_params) for nbr in neighbors]
        count = sum(1 for e in node.neighbors if e.nbr in params.members)
        ctx.emit(("links", count))
        return ()

    @staticmethod
    def aggregate(result) -> float:
        """Combine emissions into the coefficient links / (k * (k - 1))."""
        k = 0
        links = 0
        for kind, value in result.results:
            if kind == "k":
                k = value
            else:
                links += value
        if k < 2:
            return 0.0
        return links / (k * (k - 1))


class BlockRender(NodeProgram):
    """CoinGraph's block query (Figs 7, 8): from a block vertex, read
    every Bitcoin transaction vertex the block's edges point to."""

    name = "block_render"

    def run(self, node, params, ctx):
        phase = getattr(params, "phase", "block")
        if phase == "block":
            ctx.emit(
                {
                    "block": node.handle,
                    "header": node.properties(),
                    "n_tx": node.out_degree(),
                }
            )
            tx_params = SimpleNamespace(phase="tx")
            return [(e.nbr, tx_params) for e in node.neighbors]
        ctx.emit({"tx": node.handle, "data": node.properties()})
        return ()


class CollectReachable(NodeProgram):
    """Emit every vertex reachable from the start (connected-component
    style exploration; used by taint-tracking-like analyses)."""

    name = "collect_reachable"
    dedup_hops = True

    def init_state(self):
        return SimpleNamespace(visited=False)

    def run(self, node, params, ctx):
        if node.prog_state.visited:
            return ()
        node.prog_state.visited = True
        ctx.emit(node.handle)
        return [(edge.nbr, params) for edge in node.neighbors]


def params(**kwargs: Any) -> SimpleNamespace:
    """Convenience constructor for program parameters."""
    return SimpleNamespace(**kwargs)


def _build_registry() -> dict:
    """Name → class for every stock program.

    A program crosses the wire as ``(name, init)`` — ``init`` being the
    instance's own ``vars()`` — and each shard rebuilds it as
    ``PROGRAM_REGISTRY[name](**init)``, so a class belongs here when its
    constructor stores every argument under the argument's name
    (``WritePath._wire_program`` checks each instance at submit).  The
    shard workers fork with the registry as it stands then: a class
    added afterwards is unknown to them.
    """
    from . import analytics

    registry = {}
    for module in (globals(), vars(analytics)):
        for value in list(module.values()):
            if (
                isinstance(value, type)
                and issubclass(value, NodeProgram)
                and value is not NodeProgram
            ):
                registry[value.name] = value
    return registry


#: The programs the shards can construct (shipped as ``(name, init)``).
PROGRAM_REGISTRY = _build_registry()
