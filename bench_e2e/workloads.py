"""Seeded inputs for the four benchmark workloads, with a reference model.

Everything the program under test sees is produced here, *before* the
timed window: the graph (as load transactions) and a flat list of ops,
each carrying the answer a plain adjacency/property dict says it must
return.  The module imports nothing from ``repro``: the program sees
only the ops, and a change to ``repro.workloads`` cannot move the
benchmark's inputs.

The graph and its popularity order are the *dataset*: one fixed instance,
generated from a constant, as the paper replays one LiveJournal snapshot.
``--seed`` drives the request stream over it — which vertex, which op,
which edge.  A per-seed graph would move every latency by whichever
neighbourhoods happened to be popular (+-7% on ``traverse`` in a probe),
which is spread between seeds that says nothing about the program.

Only ``random.Random.random()`` is used, with our own index arithmetic:
the Mersenne-Twister double stream for a string seed is pinned across
Python versions, while ``choice``/``sample``/``shuffle`` are not, and
``test_smoke.py`` pins a digest of the generated ops.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

# An op is (kind, vertex, a, b, expected).  Kinds and their arguments:
#   get_edges    v            -> sorted [(edge handle, dst), ...]
#   count_edges  v            -> out-degree
#   get_node     v            -> {"handle", "properties", "out_degree"}
#   create_edge  src dst h    -> h
#   delete_edge  src h        -> None
#   incr         v            -> new value of property "n" (read-modify-write)
#   traverse     root         -> (visited count, crc32 of the sorted handles)
Op = Tuple[str, str, Optional[str], Optional[str], object]

READ_KINDS = frozenset(("get_edges", "count_edges", "get_node", "traverse"))

GRAPH_VERTICES = 2000
GRAPH_OUT_EDGES = 8
LOAD_OPS_PER_TX = 100
WARMUP_OPS = 500
TRAVERSE_DEPTH = 2
ZIPF_EXPONENT = 0.8

# Table 1 of the paper: within-class proportions of the TAO mix.
TAO_READ_MIX = (("get_edges", 0.594), ("count_edges", 0.117), ("get_node", 0.289))
TAO_CREATE_SHARE = 0.80


@dataclass(frozen=True)
class Workload:
    """One named workload: where it runs, what it sends, how fast at most.

    ``max_ops_per_s`` sizes the pre-generated op list (``seconds`` times
    it, plus the warm-up): the window is time-bounded, so the list only
    has to outlast it.  Each cap is about three times the rate measured
    on the 2-core reference host; a host that exhausts the list ends its
    window early and still reports ops over elapsed time.

    ``write_burst`` is ``(every, length)``: after every ``every`` ops of
    the mix come ``length`` commits, create_edge/delete_edge pairs on a
    source the mix would pick.  A mix with 0.2% or 10% writes yields a
    dozen write samples per second of window, too few for a percentile,
    yet every workload must report every metric; the bursts supply the
    samples spread over the whole window at under 2% of its time, and
    each pair leaves the graph as it found it.
    """

    name: str
    why: str
    deployment: str           # "process" or "direct"
    config: Dict[str, object]
    gc_every: int             # collect_garbage() cadence in ops; 0 = never
    max_ops_per_s: int
    write_burst: Tuple[int, int] = (0, 0)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="tao_read",
            why=(
                "TAO mix at 99.8% reads over 2 shard processes: one request/"
                "reply per op, so wire, transport, worker turn-around and "
                "snapshot resolution dominate; store and oracle idle"
            ),
            deployment="process",
            config=dict(num_shards=2, num_gatekeepers=2, announce_every=1),
            gc_every=0,
            max_ops_per_s=3600,
            write_burst=(200, 40),
        ),
        Workload(
            name="tao_write_durable",
            why=(
                "TAO mix at 50% reads on SQLite with a 256 KiB page cache "
                "smaller than the working set: store commit, gatekeeper, "
                "shard apply and compaction dominate; reads pay for writes"
            ),
            deployment="process",
            config=dict(
                num_shards=2, num_gatekeepers=2, announce_every=1,
                store_backend="sqlite", store_cache_bytes=256 * 1024,
            ),
            gc_every=2000,
            max_ops_per_s=3600,
        ),
        Workload(
            name="traverse",
            why=(
                "90% depth-2 BFS from Zipf roots, 10% create_edge, programs "
                "resident at 2 shards: engine rounds, peer frontier forwards "
                "and result gather dominate; per-op request overhead is small"
            ),
            deployment="process",
            config=dict(
                num_shards=2, num_gatekeepers=2, announce_every=1,
                program_execution="resident",
            ),
            gc_every=0,
            max_ops_per_s=900,
            write_burst=(25, 24),
        ),
        Workload(
            name="reactive_direct",
            why=(
                "in-process Weaver, 4 gatekeepers announcing every 64 commits, "
                "50% get_edges / 50% property increments on Zipf vertices: no "
                "wire or workers at all, the only workload the oracle orders"
            ),
            deployment="direct",
            config=dict(num_shards=2, num_gatekeepers=4, announce_every=64),
            gc_every=5000,
            max_ops_per_s=15000,
        ),
    )
}


class Model:
    """The reference: plain adjacency and property dicts."""

    def __init__(self) -> None:
        self.out: Dict[str, Dict[str, str]] = {}   # vertex -> {edge: dst}
        self.n: Dict[str, int] = {}                # vertex -> property "n"
        # Expected get_edges answers are shared between ops on the same
        # unchanged vertex, so a long op list stays small in memory.
        self._edges_memo: Dict[str, list] = {}

    def add_vertex(self, v: str) -> None:
        self.out[v] = {}

    def add_edge(self, src: str, dst: str, handle: str) -> None:
        self.out[src][handle] = dst
        self._edges_memo.pop(src, None)

    def del_edge(self, src: str, handle: str) -> None:
        del self.out[src][handle]
        self._edges_memo.pop(src, None)

    def edges(self, v: str) -> list:
        memo = self._edges_memo.get(v)
        if memo is None:
            memo = self._edges_memo[v] = sorted(self.out[v].items())
        return memo

    def node(self, v: str) -> dict:
        props = {"n": self.n[v]} if v in self.n else {}
        return {"handle": v, "properties": props, "out_degree": len(self.out[v])}

    def incr(self, v: str) -> int:
        self.n[v] = self.n.get(v, 0) + 1
        return self.n[v]

    def ball(self, root: str, depth: int) -> set:
        """Vertices within ``depth`` hops of ``root`` along out-edges."""
        seen = {root}
        frontier = [root]
        for _ in range(depth):
            nxt = []
            for v in frontier:
                for dst in self.out[v].values():
                    if dst not in seen:
                        seen.add(dst)
                        nxt.append(dst)
            frontier = nxt
        return seen

    def live_edges(self) -> int:
        return sum(len(edges) for edges in self.out.values())


def visit_digest(handles) -> Tuple[int, int]:
    """Order-independent digest of a traversal's visited set."""
    ordered = sorted(handles)
    return len(ordered), zlib.crc32("\n".join(ordered).encode())


def canonical(kind: str, result):
    """Reduce a client reply to the shape ``expected`` was recorded in."""
    if kind == "get_edges":
        return sorted((edge["handle"], edge["nbr"]) for edge in result)
    if kind == "traverse":
        return visit_digest(result)
    return result


class _Rng:
    """``random()``-only helpers (see the module docstring for why)."""

    def __init__(self, label: str):
        self._random = random.Random(label).random

    def unit(self) -> float:
        return self._random()

    def below(self, n: int) -> int:
        return min(n - 1, int(self._random() * n))


def build_graph() -> Tuple[List[str], List[Tuple[str, str, str]]]:
    """Directed preferential attachment, half the edges reversed.

    Each new vertex attaches to ``GRAPH_OUT_EDGES`` distinct earlier
    vertices chosen in proportion to degree; a coin flip per edge decides
    its direction, so hubs have many *out*-edges and depth-2 traversals
    fan out instead of dying at old vertices.
    """
    rng = _Rng("bench_e2e/dataset/graph")
    vertices = [f"v{i}" for i in range(GRAPH_VERTICES)]
    pool: List[int] = []          # one entry per unit of degree (+1 each)
    edges: List[Tuple[str, str, str]] = []
    for i in range(GRAPH_VERTICES):
        chosen: List[int] = []
        while len(chosen) < min(GRAPH_OUT_EDGES, i):
            target = pool[rng.below(len(pool))]
            if target not in chosen:
                chosen.append(target)
        for target in chosen:
            a, b = (target, i) if rng.unit() < 0.5 else (i, target)
            edges.append((vertices[a], vertices[b], f"e{len(edges)}"))
            pool.append(target)
            pool.append(i)
        pool.append(i)
    return vertices, edges


def load_transactions(vertices, edges) -> List[List[tuple]]:
    """The graph as load transactions of ``LOAD_OPS_PER_TX`` writes."""
    writes = [("create_vertex", v) for v in vertices]
    writes += [("create_edge", src, dst, handle) for src, dst, handle in edges]
    return [
        writes[i:i + LOAD_OPS_PER_TX]
        for i in range(0, len(writes), LOAD_OPS_PER_TX)
    ]


class _Zipf:
    """Zipf(``ZIPF_EXPONENT``) picks over the vertices.  The popularity
    order belongs to the dataset: a fixed shuffle, so popularity is
    independent of degree and the same for every seed."""

    def __init__(self, vertices: List[str], rng: _Rng):
        shuffle = _Rng("bench_e2e/dataset/popularity")
        order = list(vertices)
        for i in range(len(order) - 1, 0, -1):     # Fisher-Yates
            j = shuffle.below(i + 1)
            order[i], order[j] = order[j], order[i]
        self._order = order
        total = 0.0
        self._cum: List[float] = []
        for rank in range(1, len(order) + 1):
            total += rank ** -ZIPF_EXPONENT
            self._cum.append(total)
        self._rng = rng

    def pick(self) -> str:
        point = self._rng.unit() * self._cum[-1]
        index = min(bisect.bisect_right(self._cum, point), len(self._order) - 1)
        return self._order[index]

    @property
    def hottest(self) -> str:
        return self._order[0]


def _apply_load(model: Model, tx: List[tuple]) -> None:
    for write in tx:
        if write[0] == "create_vertex":
            model.add_vertex(write[1])
        else:
            model.add_edge(write[1], write[2], write[3])


class _Stream:
    """The request stream of one (workload, seed): appends ops to ``ops``
    while keeping the model in step, so each op's expectation reflects
    every op before it."""

    def __init__(self, name: str, seed: int, vertices: List[str], model: Model):
        self.name = name
        self.vertices = vertices
        self.model = model
        self.rng = _Rng(f"bench_e2e/ops/{name}/{seed}")
        self.zipf = _Zipf(vertices, self.rng)
        self.ops: List[Op] = []
        self._handles = 0
        # A root's digest stays valid until the mix creates an edge.
        self._digests: Dict[str, Tuple[int, int]] = {}

    def _uniform(self) -> str:
        return self.vertices[self.rng.below(len(self.vertices))]

    def _handle(self) -> str:
        self._handles += 1
        return f"x{self._handles}"

    def _create(self, src: str) -> None:
        dst, handle = self._uniform(), self._handle()
        self.model.add_edge(src, dst, handle)
        self._digests.clear()
        self.ops.append(("create_edge", src, dst, handle, handle))

    def _tao(self, read_fraction: float) -> None:
        rng, model = self.rng, self.model
        if rng.unit() < read_fraction:
            roll, v = rng.unit(), self._uniform()
            if roll < TAO_READ_MIX[0][1]:
                self.ops.append(("get_edges", v, None, None, model.edges(v)))
            elif roll < TAO_READ_MIX[0][1] + TAO_READ_MIX[1][1]:
                self.ops.append(("count_edges", v, None, None, len(model.out[v])))
            else:
                self.ops.append(("get_node", v, None, None, model.node(v)))
            return
        create, src = rng.unit() < TAO_CREATE_SHARE, self._uniform()
        if create or not model.out[src]:   # nothing to delete: never fail
            self._create(src)
        else:
            handles = list(model.out[src])
            handle = handles[rng.below(len(handles))]
            model.del_edge(src, handle)
            self.ops.append(("delete_edge", src, handle, None, None))

    def _traverse(self) -> None:
        if self.rng.unit() < 0.9:
            root = self.zipf.pick()
            digest = self._digests.get(root)
            if digest is None:
                digest = self._digests[root] = visit_digest(
                    self.model.ball(root, TRAVERSE_DEPTH)
                )
            self.ops.append(("traverse", root, None, None, digest))
        else:
            self._create(self.zipf.pick())

    def _reactive(self) -> None:
        v = self.zipf.pick()
        if self.rng.unit() < 0.5:
            self.ops.append(("get_edges", v, None, None, self.model.edges(v)))
        else:
            self.ops.append(("incr", v, None, None, self.model.incr(v)))

    def mix(self, n: int) -> None:
        """``n`` ops of the workload's mix."""
        for _ in range(n):
            if self.name == "tao_read":
                self._tao(0.998)
            elif self.name == "tao_write_durable":
                self._tao(0.5)
            elif self.name == "traverse":
                self._traverse()
            else:
                self._reactive()

    def burst(self, length: int) -> None:
        """``length`` commits: create an edge, delete it again.  No read
        comes between the two, so the model never holds the edge."""
        for _ in range(length // 2):
            src = self.zipf.pick() if self.name == "traverse" else self._uniform()
            dst, handle = self._uniform(), self._handle()
            self.ops.append(("create_edge", src, dst, handle, handle))
            self.ops.append(("delete_edge", src, handle, None, None))


@dataclass
class Inputs:
    """What one run feeds the deployment, from (workload, seed, n_ops)."""

    load: List[List[tuple]]
    ops: List[Op]                 # ``WARMUP_OPS`` warm-up ops, then the window
    hottest: str                  # the most popular vertex

    def model_after(self, executed: int) -> Model:
        """Replay the graph and the first ``executed`` ops on a fresh
        model — the state the deployment must be in when the window
        closes part-way through the list."""
        model = Model()
        for tx in self.load:
            _apply_load(model, tx)
        for kind, v, a, b, _ in self.ops[:executed]:
            if kind == "create_edge":
                model.add_edge(v, a, b)
            elif kind == "delete_edge":
                model.del_edge(v, a)
            elif kind == "incr":
                model.incr(v)
        return model


def generate(name: str, seed: int, window_ops: int) -> Inputs:
    """Inputs for workload ``name``: the dataset, then from ``seed`` the
    warm-up (pure mix) and at least ``window_ops`` ops for the window (mix
    with the workload's write bursts).  A shorter list is a prefix of a
    longer one."""
    workload = WORKLOADS[name]
    vertices, edges = build_graph()
    load = load_transactions(vertices, edges)
    model = Model()
    for tx in load:
        _apply_load(model, tx)
    stream = _Stream(name, seed, vertices, model)
    stream.mix(WARMUP_OPS)
    every, length = workload.write_burst
    while len(stream.ops) < WARMUP_OPS + window_ops:
        stream.mix(every or window_ops)
        stream.burst(length)
    return Inputs(load=load, ops=stream.ops, hottest=stream.zipf.hottest)


def ops_digest(ops: List[Op]) -> str:
    """Stable digest of an op list (kinds, arguments and expectations)."""
    h = hashlib.sha256()
    for op in ops:
        h.update(repr(op).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
