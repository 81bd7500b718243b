"""Heavier analysis node programs (section 2.3's "wide array of graph
algorithms").

These complement the stock library with the algorithm families the
paper names — label propagation, connected components, graph search —
plus triangle counting and weighted shortest paths, all expressed in
the same scatter-gather node-program model and all running on one
consistent snapshot.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, Optional

from .framework import NodeProgram, ProgramResult


class KHopNeighborhood(NodeProgram):
    """Collect every vertex within ``params.k`` hops, with its depth."""

    name = "k_hop_neighborhood"

    def init_state(self):
        return SimpleNamespace(depth=None)

    def run(self, node, params, ctx):
        depth = getattr(params, "depth", 0)
        state = node.prog_state
        if state.depth is not None and state.depth <= depth:
            return ()
        state.depth = depth
        ctx.emit((node.handle, depth))
        if depth >= params.k:
            return ()
        next_params = SimpleNamespace(k=params.k, depth=depth + 1)
        return [(edge.nbr, next_params) for edge in node.neighbors]


class LabelPropagation(NodeProgram):
    """Synchronous-ish label propagation for community detection.

    Every vertex starts labeled with itself; on each visit it adopts the
    smallest label seen from its in-propagating neighbours and, if its
    label improved, pushes it onward.  On a static snapshot this
    converges to the minimum label per weakly-propagated region (for
    out-edge propagation: per reachable-closure from minima), which is
    exactly the connected-component labeling the paper groups under
    "label propagation" workloads.
    """

    name = "label_propagation"

    def init_state(self):
        return SimpleNamespace(label=None)

    def run(self, node, params, ctx):
        state = node.prog_state
        incoming = getattr(params, "label", node.handle)
        own = state.label if state.label is not None else node.handle
        best = min(own, incoming)
        if state.label is not None and best >= state.label:
            return ()
        state.label = best
        ctx.emit((node.handle, best))
        next_params = SimpleNamespace(label=best)
        return [(edge.nbr, next_params) for edge in node.neighbors]

    @staticmethod
    def final_labels(result: ProgramResult) -> Dict[str, str]:
        """The last emitted label per vertex (its converged value)."""
        labels: Dict[str, str] = {}
        for handle, label in result.results:
            labels[handle] = label
        return labels


class ComponentSize(NodeProgram):
    """Size of the reachable set from the start vertex (connected
    component under out-edge reachability)."""

    name = "component_size"

    def init_state(self):
        return SimpleNamespace(visited=False)

    def run(self, node, params, ctx):
        if node.prog_state.visited:
            return ()
        node.prog_state.visited = True
        ctx.emit(node.handle)
        return [(edge.nbr, None) for edge in node.neighbors]

    @staticmethod
    def size(result: ProgramResult) -> int:
        return len(result.results)


class TriangleCount(NodeProgram):
    """Count directed triangles through the start vertex.

    Phase "center": record the neighbour set and fan out.  Phase
    "probe": each neighbour reports edges back into the set; a triangle
    a -> b -> c -> a contributes via b's edge to c when probed from a.
    """

    name = "triangle_count"

    def run(self, node, params, ctx):
        phase = getattr(params, "phase", "center")
        if phase == "center":
            members = frozenset(e.nbr for e in node.neighbors)
            probe = SimpleNamespace(
                phase="probe", members=members, center=node.handle
            )
            return [(nbr, probe) for nbr in members]
        hits = sum(
            1
            for e in node.neighbors
            if e.nbr in params.members and e.nbr != node.handle
        )
        ctx.emit(hits)
        return ()

    @staticmethod
    def total(result: ProgramResult) -> int:
        """Directed 2-paths closing back into the neighbour set."""
        return sum(result.results)


class WeightedShortestPath(NodeProgram):
    """Dijkstra as a node program, using an edge property as weight.

    The executor's FIFO frontier does not order by distance, so the
    program re-relaxes: a vertex propagates whenever its best-known
    distance improves.  Converges on any snapshot with non-negative
    weights; emits (target, distance) every time the target improves —
    the last emission is the answer.
    """

    name = "weighted_shortest_path"

    def __init__(self, weight_prop: str = "weight"):
        self.weight_prop = weight_prop

    def init_state(self):
        return SimpleNamespace(dist=None)

    def run(self, node, params, ctx):
        dist = getattr(params, "dist", 0.0)
        state = node.prog_state
        if state.dist is not None and state.dist <= dist:
            return ()
        state.dist = dist
        if node.handle == params.target:
            ctx.emit((node.handle, dist))
            return ()
        hops = []
        for edge in node.neighbors:
            weight = edge.get_property(self.weight_prop, 1.0)
            hops.append(
                (
                    edge.nbr,
                    SimpleNamespace(target=params.target, dist=dist + weight),
                )
            )
        return hops

    @staticmethod
    def distance(result: ProgramResult) -> Optional[float]:
        if not result.results:
            return None
        return min(dist for _, dist in result.results)


class PushPageRank(NodeProgram):
    """Residual-pushing PageRank over out-edges.

    The classic push formulation (Andersen-Chung-Lang style) fits the
    node-program model naturally: each vertex accumulates ``rank`` and
    forwards ``damping * residual / out_degree`` to its neighbours,
    revisiting them until residuals fall under ``epsilon``.  Run from a
    seed vertex it computes personalized PageRank; final scores live in
    the per-vertex program state (``result.states``), which is why this
    program declares ``returns_state``.
    """

    name = "push_pagerank"
    returns_state = True

    def __init__(self, damping: float = 0.85, epsilon: float = 1e-4):
        if not 0 < damping < 1:
            raise ValueError("damping must be in (0, 1)")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.damping = damping
        self.epsilon = epsilon

    def init_state(self):
        return SimpleNamespace(rank=0.0, residual=0.0)

    def run(self, node, params, ctx):
        state = node.prog_state
        state.residual += getattr(params, "mass", 0.0)
        if state.residual < self.epsilon:
            return ()
        mass = state.residual
        state.residual = 0.0
        state.rank += (1 - self.damping) * mass
        neighbors = node.neighbors
        if not neighbors:
            state.rank += self.damping * mass  # dangling: keep the mass
            return ()
        share = self.damping * mass / len(neighbors)
        push = SimpleNamespace(mass=share)
        return [(edge.nbr, push) for edge in neighbors]

    @staticmethod
    def scores(result: ProgramResult) -> Dict[str, float]:
        return {
            handle: state.rank
            for handle, state in result.states.items()
            if state.rank > 0
        }


class DegreeHistogram(NodeProgram):
    """Out-degree histogram over the k-hop neighbourhood of the start."""

    name = "degree_histogram"

    def init_state(self):
        return SimpleNamespace(visited=False)

    def run(self, node, params, ctx):
        if node.prog_state.visited:
            return ()
        node.prog_state.visited = True
        ctx.emit(node.out_degree())
        depth = getattr(params, "depth", 0)
        k = getattr(params, "k", None)
        if k is not None and depth >= k:
            return ()
        next_params = SimpleNamespace(k=k, depth=depth + 1)
        return [(edge.nbr, next_params) for edge in node.neighbors]

    @staticmethod
    def histogram(result: ProgramResult) -> Dict[int, int]:
        hist: Dict[int, int] = {}
        for degree in result.results:
            hist[degree] = hist.get(degree, 0) + 1
        return hist
