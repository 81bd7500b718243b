"""A GraphLab/PowerGraph-like baseline: offline GAS graph processing.

The paper compares Weaver's traversal latency against GraphLab v2.2's
synchronous and asynchronous engines (section 6.3, Fig 11).  Both modes
compute the same answers on a static graph; they differ in the
coordination they pay, which is what the cost model charges:

* **sync** — bulk-synchronous supersteps: per round, the active
  vertices' work is spread across machines, then every machine waits at
  a barrier.  Barriers dominate traversals with many shallow rounds.
* **async** — no barriers, but *edge consistency*: a vertex update must
  exclude concurrent updates of its neighbours, modelled with exclusive
  locks on vertex + neighbours, executed on a pool of machine resources.
  Dense neighbourhoods serialize.

Weaver's node programs pay neither cost (MVCC snapshots isolate them),
which is the source of the 4-9x latency gap the figure shows.

A small but real GAS (gather-apply-scatter) API is included; BFS and
reachability are provided as stock programs on top of it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..bench.costmodel import CostParams, LockTable
from ..sim.simulator import Server, Simulator


class GasProgram:
    """One vertex program in the gather-apply-scatter model.

    ``gather`` folds over a vertex's in-neighbours' values; ``apply``
    computes the vertex's new value; ``scatter`` decides which
    out-neighbours to activate.  Values live in the engine, keyed by
    vertex.
    """

    initial_value: Any = None

    def gather(self, acc: Any, neighbor_value: Any) -> Any:
        raise NotImplementedError

    gather_initial: Any = None

    def apply(self, old_value: Any, gathered: Any) -> Any:
        raise NotImplementedError

    def scatter(self, old_value: Any, new_value: Any) -> bool:
        """True activates the out-neighbours for the next step."""
        raise NotImplementedError


class BfsProgram(GasProgram):
    """Distance propagation: value = best-known distance from the root."""

    INF = float("inf")
    initial_value = INF
    gather_initial = INF

    def gather(self, acc, neighbor_value):
        return min(acc, neighbor_value + 1)

    def apply(self, old_value, gathered):
        return min(old_value, gathered)

    def scatter(self, old_value, new_value):
        return new_value < old_value


class GraphLab:
    """The baseline engine: functional GAS plus cost accounting."""

    def __init__(
        self,
        mode: str = "sync",
        num_machines: int = 4,
        costs: Optional[CostParams] = None,
    ):
        if mode not in ("sync", "async"):
            raise ValueError(f"unknown mode {mode!r}")
        if num_machines <= 0:
            raise ValueError("need at least one machine")
        self.mode = mode
        self.num_machines = num_machines
        self.costs = costs or CostParams()
        self._out: Dict[str, List[str]] = {}
        self._in: Dict[str, List[str]] = {}
        # Queries run ahead of this clock: every charge names its start.
        self.simulator = Simulator()
        self.machines = [
            Server(self.simulator, f"gl{i}") for i in range(num_machines)
        ]
        self.locks = LockTable()
        self.supersteps = 0
        self.updates = 0

    # -- graph loading (offline system: load once, then query) ----------

    def load(self, edges: Iterable[Tuple[str, str]]) -> None:
        for src, dst in edges:
            self._out.setdefault(src, []).append(dst)
            self._out.setdefault(dst, [])
            self._in.setdefault(dst, []).append(src)
            self._in.setdefault(src, [])

    @property
    def num_vertices(self) -> int:
        return len(self._out)

    def out_neighbors(self, vertex: str) -> List[str]:
        return self._out.get(vertex, [])

    # -- GAS execution ---------------------------------------------------

    def run(
        self,
        program: GasProgram,
        initial_active: Dict[str, Any],
        start: float = 0.0,
        max_supersteps: int = 10_000,
    ) -> Tuple[Dict[str, Any], float]:
        """Run to convergence; returns (values, completion time).

        ``initial_active`` seeds both the value table overrides and the
        active set.  Both engines produce the same fixpoint; only the
        charged time differs.
        """
        values: Dict[str, Any] = {
            v: program.initial_value for v in self._out
        }
        values.update(initial_active)
        active: Set[str] = set(initial_active)
        # Last value each vertex scattered; seeds scatter their seeded
        # value on first activation (otherwise a BFS root with distance 0
        # would never signal its neighbours).
        scattered: Dict[str, Any] = {}
        # Job launch: coordinate every machine before computing.
        t = start + self.costs.graphlab_job_startup + self.costs.rtt
        steps = 0
        while active and steps < max_supersteps:
            steps += 1
            if self.mode == "sync":
                t = self._charge_sync_round(len(active), t)
            next_active: Set[str] = set()
            # Deterministic order keeps runs reproducible.
            for vertex in sorted(active):
                if self.mode == "async":
                    t_vertex = self._charge_async_update(vertex, t)
                self.updates += 1
                gathered = program.gather_initial
                for nbr in self._in.get(vertex, ()):
                    gathered = program.gather(gathered, values[nbr])
                old = values[vertex]
                new = program.apply(old, gathered)
                values[vertex] = new
                last = scattered.get(vertex, program.initial_value)
                if program.scatter(last, new):
                    scattered[vertex] = new
                    next_active.update(self._out.get(vertex, ()))
                if self.mode == "async":
                    t = max(t, t_vertex)
            active = next_active
        self.supersteps += steps
        return values, t

    def _charge_sync_round(self, active_count: int, t: float) -> float:
        """One bulk-synchronous superstep: parallel work, then barrier."""
        work = active_count * self.costs.vertex_read_service
        compute = work / self.num_machines
        return t + compute + self.costs.barrier_cost + self.costs.rtt

    def _charge_async_update(self, vertex: str, t: float) -> float:
        """One async update: lock self + neighbours (edge consistency),
        run on the least-loaded machine."""
        scope = [vertex] + self._out.get(vertex, []) + self._in.get(vertex, [])
        grant = self.locks.lock_all(scope, t)
        machine = min(self.machines, key=lambda m: m.busy_until)
        # Each update pays its compute plus the lock-manager round:
        # edge-consistency locking is per-update overhead in async mode.
        done = machine.occupy(
            self.costs.vertex_read_service + self.costs.lock_service,
            at=grant,
        )
        self.locks.hold_all_until(scope, done)
        return done

    # -- stock queries (the Fig 11 workload) ------------------------------

    def bfs_distances(
        self, src: str, start: float = 0.0
    ) -> Tuple[Dict[str, float], float]:
        values, t = self.run(BfsProgram(), {src: 0.0}, start)
        return values, t

    def reachability(
        self, src: str, dst: str, start: float = 0.0
    ) -> Tuple[bool, float]:
        """Is dst reachable from src?  (Runs distance propagation to the
        full fixpoint, as an offline engine must — it cannot stop early
        without a global termination check.)"""
        if src not in self._out:
            return False, start
        values, t = self.bfs_distances(src, start)
        return values.get(dst, BfsProgram.INF) < BfsProgram.INF, t

    # -- functional-only reference (for correctness cross-checks) --------

    def reachable_reference(self, src: str, dst: str) -> bool:
        if src not in self._out:
            return False
        seen = {src}
        frontier = deque([src])
        while frontier:
            vertex = frontier.popleft()
            if vertex == dst:
                return True
            for nbr in self._out.get(vertex, ()):
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        return dst in seen
