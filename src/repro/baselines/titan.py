"""A Titan-like baseline: distributed 2PL + two-phase commit.

Titan v0.4.2 (the paper's comparison system, section 6.2) ensures
serializability by pessimistically locking every object a transaction
touches — reads included — and running two-phase commit across the
involved partitions [51].  That is why its measured throughput is nearly
flat (~2k tx/s) regardless of the read/write mix: the lock-and-2PC cost
dominates and is paid per transaction either way.

This baseline is both *functional* (a working partitioned property-graph
store whose histories are serializable — the lock table serializes
conflicting transactions) and *cost-accounted*: every operation returns
its completion time in simulated seconds, charging

* one client→coordinator round trip,
* lock acquisition (waiting out conflicting holders, one lock-service
  round trip per involved partition),
* two 2PC phases, each a round trip plus partition service time,
* lock release at commit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bench.costmodel import CostParams, LockTable
from ..errors import NoSuchEdge, NoSuchVertex, TransactionAborted
from ..graph.partition import HashPartitioner
from ..sim.simulator import Server, Simulator

Op = Tuple  # ("create_edge", handle, src, dst) etc.


class _TitanVertex:
    __slots__ = ("properties", "edges")

    def __init__(self) -> None:
        self.properties: Dict[str, Any] = {}
        # edge handle -> (dst, properties)
        self.edges: Dict[str, Tuple[str, Dict[str, Any]]] = {}


class TitanStats:
    def __init__(self) -> None:
        self.commits = 0
        self.aborts = 0
        self.reads = 0


class TitanGraph:
    """The baseline database: one object, functional + cost model."""

    def __init__(
        self,
        num_shards: int = 2,
        costs: Optional[CostParams] = None,
    ):
        if num_shards <= 0:
            raise ValueError("need at least one shard")
        self.costs = costs or CostParams()
        self.num_shards = num_shards
        self._graph: Dict[str, _TitanVertex] = {}
        self._partitioner = HashPartitioner(num_shards)
        #: The clock a closed loop drives this model on; operations run
        #: ahead of it, so every charge names its own start time.
        self.simulator = Simulator()
        self.shards = [
            Server(self.simulator, f"titan-shard{i}")
            for i in range(num_shards)
        ]
        # The serial lock/2PC coordination path; its service time is what
        # pins Titan's measured throughput near-flat across read mixes.
        self.coordinator = Server(self.simulator, "titan-coordinator")
        self.locks = LockTable()
        self.stats = TitanStats()

    # -- placement ---------------------------------------------------

    def _shard_of(self, vertex: str) -> Server:
        return self.shards[self._partitioner.assign(vertex)]

    # -- functional helpers -------------------------------------------

    def _vertex(self, handle: str) -> _TitanVertex:
        vertex = self._graph.get(handle)
        if vertex is None:
            raise NoSuchVertex(handle)
        return vertex

    @staticmethod
    def _touched(operations: Sequence[Op]) -> List[str]:
        touched = []
        for op in operations:
            kind = op[0]
            if kind in ("create_vertex", "delete_vertex",
                        "set_vertex_property"):
                touched.append(op[1])
            elif kind == "create_edge":
                touched.append(op[2])
            elif kind in ("delete_edge", "set_edge_property"):
                touched.append(op[1])
            else:
                raise ValueError(f"unknown operation {kind!r}")
        return touched

    def _apply(self, operations: Sequence[Op]) -> None:
        for op in operations:
            kind = op[0]
            if kind == "create_vertex":
                if op[1] in self._graph:
                    raise TransactionAborted(f"vertex {op[1]!r} exists")
                self._graph[op[1]] = _TitanVertex()
            elif kind == "delete_vertex":
                if op[1] not in self._graph:
                    raise TransactionAborted(f"vertex {op[1]!r} missing")
                del self._graph[op[1]]
            elif kind == "create_edge":
                _, handle, src, dst = op
                vertex = self._vertex(src)
                if dst not in self._graph:
                    raise TransactionAborted(f"destination {dst!r} missing")
                if handle in vertex.edges:
                    raise TransactionAborted(f"edge {handle!r} exists")
                vertex.edges[handle] = (dst, {})
            elif kind == "delete_edge":
                _, src, handle = op
                vertex = self._vertex(src)
                if handle not in vertex.edges:
                    raise TransactionAborted(f"edge {handle!r} missing")
                del vertex.edges[handle]
            elif kind == "set_vertex_property":
                _, handle, key, value = op
                self._vertex(handle).properties[key] = value
            elif kind == "set_edge_property":
                _, src, handle, key, value = op
                vertex = self._vertex(src)
                if handle not in vertex.edges:
                    raise NoSuchEdge(handle)
                vertex.edges[handle][1][key] = value

    # -- the transaction protocol --------------------------------------

    def execute(self, operations: Sequence[Op], start: float) -> float:
        """Run one write transaction; returns its completion time.

        Functional failures (validity violations) raise
        :class:`TransactionAborted` *after* charging the lock and abort
        costs — a real Titan pays for its aborts too.
        """
        touched = self._touched(operations)
        involved = {self._partitioner.assign(v) for v in touched}
        c = self.costs
        # Client -> transaction coordinator (a serial resource).
        t = start + c.rtt
        t = self.coordinator.occupy(c.titan_coordinator_service, at=t)
        # Lock phase: a lock-service round trip per involved partition,
        # then wait out conflicting holders.
        t += c.rtt * max(1, len(involved)) / 2 + c.lock_service
        grant = self.locks.lock_all(touched, t)
        t = grant
        # 2PC: prepare and commit, each one round trip with partition
        # service; partitions work in parallel, so take the max.
        for _ in range(2):
            phase_end = t
            for shard_index in involved or {0}:
                done = self.shards[shard_index].occupy(
                    c.shard_op_service * max(1, len(operations)), at=t
                )
                phase_end = max(phase_end, done)
            t = phase_end + c.rtt
        try:
            self._apply(operations)
        except TransactionAborted:
            self.stats.aborts += 1
            self.locks.hold_all_until(touched, t)
            raise
        self.stats.commits += 1
        self.locks.hold_all_until(touched, t)
        return t

    # -- reads (also locked: Titan pays locking for every access) --------

    def _read(self, vertex: str, start: float, work: float) -> float:
        c = self.costs
        t = start + c.rtt
        # Reads lock too, through the same serial coordination path —
        # which is why Titan's throughput barely moves with the read mix.
        t = self.coordinator.occupy(c.titan_coordinator_service, at=t)
        t += c.lock_service
        t = self.locks.lock(vertex, t)
        done = self._shard_of(vertex).occupy(work, at=t)
        finish = done + c.rtt
        self.locks.hold_until(vertex, finish)
        self.stats.reads += 1
        return finish

    def get_node(self, handle: str, start: float) -> Tuple[Dict, float]:
        vertex = self._vertex(handle)
        finish = self._read(handle, start, self.costs.vertex_read_service)
        return (
            {
                "handle": handle,
                "properties": dict(vertex.properties),
                "out_degree": len(vertex.edges),
            },
            finish,
        )

    def get_edges(self, handle: str, start: float) -> Tuple[List, float]:
        vertex = self._vertex(handle)
        work = self.costs.vertex_read_service * max(1, len(vertex.edges))
        finish = self._read(handle, start, work)
        edges = [
            {"handle": h, "nbr": dst, "properties": dict(props)}
            for h, (dst, props) in vertex.edges.items()
        ]
        return edges, finish

    def count_edges(self, handle: str, start: float) -> Tuple[int, float]:
        vertex = self._vertex(handle)
        finish = self._read(handle, start, self.costs.vertex_read_service)
        return len(vertex.edges), finish

    # -- bulk load (no cost accounting; benchmark setup only) ------------

    def load(self, edges, vertices=()) -> None:
        for handle in vertices:
            self._graph.setdefault(handle, _TitanVertex())
        for i, (src, dst) in enumerate(edges):
            self._graph.setdefault(src, _TitanVertex())
            self._graph.setdefault(dst, _TitanVertex())
            self._graph[src].edges[f"e{i}"] = (dst, {})

    # -- functional traversal (for correctness cross-checks) -------------

    def reachable(self, src: str, dst: str) -> bool:
        if src not in self._graph:
            return False
        seen = {src}
        frontier = [src]
        while frontier:
            nxt = []
            for handle in frontier:
                if handle == dst:
                    return True
                for other, _ in self._graph[handle].edges.values():
                    if other not in seen and other in self._graph:
                        seen.add(other)
                        nxt.append(other)
            frontier = nxt
        return dst in seen
