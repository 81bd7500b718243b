"""Experiment harness: one function per table/figure in section 6.

Each ``experiment_*`` function returns a result object whose ``rows()``
method (or fields) yield the same series the paper's figure plots.  The
benchmark files under ``benchmarks/`` call these and print the tables.

Weaver's series in Figs 7-13 and A7 are measured on the simulated twin:
a :class:`~repro.sim.deployment.SimulatedWeaver` with a
:class:`~repro.bench.costmodel.CostParams` attached runs the real write
path and shard engine on simulated time, driven by
:class:`~repro.sim.workload.SimClients`; its throughput and
``obs`` latency histograms are the figure.  The baselines (Titan,
GraphLab, Blockchain.info, Kineograph) are cost models on the
simulator's ``Server`` and a ``LockTable``; Titan's Fig 9 run is driven
by the same ``SimClients``.  Fig 9's reactively-ordered fraction is
measured on the functional :class:`~repro.db.database.Weaver`.

Scales default to laptop-sized datasets; every function takes explicit
size parameters so the suites can run fast under pytest while remaining
faithful at larger settings.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..baselines.graphlab import GraphLab
from ..baselines.titan import TitanGraph
from ..core.gatekeeper import Gatekeeper, sync_announce_all
from ..core.ordering import RefinableOrdering
from ..core.oracle import TimelineOracle
from ..db import operations as ops
from ..db.client import WeaverClient
from ..db.config import WeaverConfig
from ..db.database import Weaver
from ..errors import NoSuchEdge, NoSuchVertex, TransactionAborted
from ..graph.partition import (
    HashPartitioner,
    LdgPartitioner,
    balance,
    edge_cut,
    restream,
)
from ..obs.metrics import Histogram
from ..programs import library
from ..sim.clock import MSEC, USEC
from ..sim.deployment import SimulatedWeaver
from ..sim.workload import SimClients, finite_stream
from ..workloads import bitcoin, graphs
from ..workloads.runner import run_tao
from ..workloads.tao import TaoWorkload
from .costmodel import CostParams

# The twin's announce period τ and NOP heartbeat period in every figure:
# the values the service-cost tests ran with before any figure's shape
# was measured on the twin.
TWIN_TAU = 200 * USEC
TWIN_NOP_PERIOD = 200 * USEC

_TAO_READS = {
    "get_node": library.GetNode,
    "get_edges": library.GetEdges,
    "count_edges": library.CountEdges,
}


def _closed_loop(system, clients: int, specs) -> SimClients:
    """Run the op specs through ``clients`` closed-loop clients on
    ``system``: a twin, or a baseline's adapter (:class:`_TitanClients`)."""
    run = SimClients(system, clients, finite_stream(specs))
    run.start()
    run.run_to_completion()
    return run


def _twin(
    num_gatekeepers: int,
    num_shards: int,
    costs: CostParams,
    edges: Sequence[Tuple[str, str]] = (),
) -> SimulatedWeaver:
    """A costed twin holding the graph ``edges``, loaded by one client
    in two transactions (the vertices, then the edges); the load's
    commit latencies are cleared."""
    twin = SimulatedWeaver(
        WeaverConfig(num_gatekeepers=num_gatekeepers, num_shards=num_shards),
        tau=TWIN_TAU,
        nop_period=TWIN_NOP_PERIOD,
        costs=costs,
    )
    if edges:
        load = _closed_loop(twin, 1, [
            ("tx", [ops.CreateVertex(v) for v in graphs.vertices_of(edges)]),
            ("tx", [
                ops.CreateEdge(f"e{i}", src, dst)
                for i, (src, dst) in enumerate(edges)
            ]),
        ])
        if load.failed:
            raise RuntimeError("loading the twin aborted")
        twin.latency_tx.reset()
    return twin


def _tao_spec(op) -> tuple:
    """A TAO op (:mod:`repro.workloads.tao`) as a twin op spec."""
    kind = op[0]
    if kind == "create_edge":
        _, src, dst, handle = op
        return ("tx", [ops.CreateEdge(handle, src, dst)])
    if kind == "delete_edge":
        _, src, handle = op
        return ("tx", [ops.DeleteEdge(src, handle)])
    return ("prog", _TAO_READS[kind](), op[1], None)


@dataclass
class Rows:
    """A figure's series: ``rows()`` yields the points the paper plots."""

    rows_data: List[tuple] = field(default_factory=list)

    def rows(self):
        return list(self.rows_data)


# ---------------------------------------------------------------------------
# Figures 7 & 8: CoinGraph vs Blockchain.info
# ---------------------------------------------------------------------------

# Distinct blocks a Fig 8 point loads, drawn from [x, x+100]; its queries
# are drawn among them (EXPERIMENTS.md, Known deviations: "Fig 8").
FIG8_BLOCKS_PER_POINT = 8


def _coingraph(
    num_shards: int, costs: Optional[CostParams], blocks
) -> SimulatedWeaver:
    """CoinGraph on the twin: ``blocks`` loaded (an edge from each block
    to each of its transactions) on one gatekeeper and ``num_shards``
    shards.  A CoinGraph vertex read is a demand page (section 6.1), so
    each costs ``coingraph_tx_service``."""
    costs = copy.copy(costs or CostParams())
    costs.vertex_read_service = costs.coingraph_tx_service
    return _twin(1, num_shards, costs, [
        (block.block_id, tx.tx_id)
        for block in blocks
        for tx in block.transactions
    ])


def _render(block: bitcoin.Block) -> tuple:
    """CoinGraph's block query as a twin op spec."""
    return ("prog", library.BlockRender(), block.block_id, None)


@dataclass
class Fig7Result(Rows):
    functional_blocks_checked: int = 0

    @property
    def speedup_at_max_height(self) -> float:
        return self.rows_data[-1][4] if self.rows_data else 0.0


def experiment_fig7(
    heights: Sequence[int] = (
        1_000, 50_000, 100_000, 150_000, 200_000, 250_000, 300_000, 350_000
    ),
    costs: Optional[CostParams] = None,
) -> Fig7Result:
    """Block-query latency, CoinGraph vs Blockchain.info (Fig 7).

    CoinGraph renders each block, at its real transaction count, alone
    on a twin of one gatekeeper and one shard; every render is checked
    to return exactly its block's transactions.  The paper's 0.6-0.8 ms
    per transaction is the slope of per-block latency, so one shard
    pages them in serially (on 8 shards the reads would spread and the
    speedup at 350k would be 34x).  Blockchain.info charges its measured
    per-row join cost.
    """
    costs = costs or CostParams()
    blocks = bitcoin.BlockchainGenerator(seed=7).generate(heights)
    twin = _coingraph(1, costs, blocks)
    result = Fig7Result()
    for block in blocks:
        run = _closed_loop(twin, 1, [_render(block)])
        header, *rendered = run.results[0].results
        txs = sorted(tx.tx_id for tx in block.transactions)
        if header["n_tx"] != len(txs) or sorted(
            tx["tx"] for tx in rendered
        ) != txs:
            raise RuntimeError(
                f"{block.block_id} did not render exactly its transactions"
            )
        result.functional_blocks_checked += 1
        coingraph = run.latencies.mean
        bcinfo = 2 * costs.wan_latency + len(txs) * costs.sql_row_service
        result.rows_data.append(
            (block.height, len(txs), coingraph, bcinfo, bcinfo / coingraph)
        )
    return result


def experiment_fig8(
    base_heights: Sequence[int] = (
        1_000, 100_000, 200_000, 300_000, 350_000
    ),
    queries_per_point: int = 40,
    clients: int = 16,
    num_shards: int = 8,
    costs: Optional[CostParams] = None,
) -> Rows:
    """Block-render throughput vs block height (Fig 8).

    For each base height x, loads ``FIG8_BLOCKS_PER_POINT`` blocks drawn
    from [x, x+100] into a twin and renders blocks drawn among them
    under a closed loop; reports queries/s and vertex reads/s (a
    render reads its block and every transaction).  Throughput falls
    with height (bigger blocks) while the vertex-read rate stays within
    a band — the paper's 5k-20k reads/s.
    """
    result = Rows()
    for base in base_heights:
        rng = random.Random(base)
        blocks = bitcoin.BlockchainGenerator(seed=base).generate(sorted(
            rng.sample(range(base, base + 100), FIG8_BLOCKS_PER_POINT)
        ))
        run = _closed_loop(
            _coingraph(num_shards, costs, blocks),
            clients,
            [_render(rng.choice(blocks)) for _ in range(queries_per_point)],
        )
        reads = sum(len(r.results) for r in run.results.values())
        result.rows_data.append(
            (
                base,
                run.throughput,
                reads / run.makespan if run.makespan else 0.0,
            )
        )
    return result


# ---------------------------------------------------------------------------
# Figures 9 & 10: social-network workload, Weaver vs Titan
# ---------------------------------------------------------------------------

class _TitanClients:
    """Titan under :class:`SimClients`: a TAO op runs through the cost
    model at the simulator's now and completes at the time the model
    returns.  An op Titan refuses (an abort, a missing vertex or edge)
    still costs a round trip and completes as failed; any other
    exception is a bug and propagates."""

    timer_period = MSEC  # Titan keeps no timers: any step drains it

    def __init__(self, titan: TitanGraph):
        self.titan = titan
        self.simulator = titan.simulator

    def submit(self, op: tuple, callback) -> None:
        titan, start = self.titan, self.simulator.now
        kind, value = op[0], None
        try:
            if kind == "create_edge":
                _, src, dst, handle = op
                finish = titan.execute(
                    [("create_edge", handle, src, dst)], start
                )
            elif kind == "delete_edge":
                _, src, handle = op
                finish = titan.execute([("delete_edge", src, handle)], start)
            else:  # get_node, get_edges, count_edges: Titan's reads
                value, finish = getattr(titan, kind)(op[1], start)
            ok = True
        except (TransactionAborted, NoSuchVertex, NoSuchEdge) as exc:
            ok, value, finish = False, exc, start + titan.costs.rtt
        self.simulator.schedule_at(finish, callback, ok, value)


@dataclass
class SocialRunResult:
    read_fraction: float
    clients_weaver: int
    clients_titan: int
    weaver_run: SimClients
    titan_run: SimClients
    reactive_fraction: float

    @property
    def titan_throughput(self) -> float:
        return self.titan_run.throughput

    @property
    def titan_latencies(self) -> Histogram:
        return self.titan_run.latencies

    @property
    def weaver_throughput(self) -> float:
        return self.weaver_run.throughput

    @property
    def weaver_latencies(self) -> Histogram:
        return self.weaver_run.latencies

    @property
    def weaver_read_latencies(self) -> Histogram:
        return self.weaver_run.deployment.latency_program

    @property
    def weaver_write_latencies(self) -> Histogram:
        return self.weaver_run.deployment.latency_tx

    @property
    def speedup(self) -> float:
        if self.titan_throughput <= 0:
            return 0.0
        return self.weaver_throughput / self.titan_throughput


def _functional_reactive_fraction(
    read_fraction: float,
    num_vertices: int,
    functional_ops: int,
    seed: int,
) -> float:
    """Measure the reactively-ordered fraction on the live system."""
    edges = graphs.social_graph(num_vertices, 5, seed)
    # announce_every=4 models a finite τ: some same-window stamps stay
    # concurrent and need the oracle, as in the paper's deployment.
    db = Weaver(
        WeaverConfig(num_gatekeepers=3, num_shards=4, announce_every=4)
    )
    client = WeaverClient(db)
    handles = graphs.load_into_weaver(client, edges)
    pool = [
        (key.split("->", 1)[0], handle) for key, handle in handles.items()
    ]
    workload = TaoWorkload(
        graphs.vertices_of(edges),
        edge_pool=pool,
        read_fraction=read_fraction,
        seed=seed,
    )
    report = run_tao(client, workload, functional_ops)
    return report.reactive_fraction


def experiment_fig9(
    read_fraction: float = 0.998,
    clients_weaver: int = 50,
    clients_titan: int = 60,
    total_ops: int = 20_000,
    num_vertices: int = 400,
    functional_ops: int = 300,
    seed: int = 11,
    costs: Optional[CostParams] = None,
    measure_reactive: bool = True,
) -> SocialRunResult:
    """Throughput on the TAO mix (Fig 9a at 99.8% reads; Fig 9b at 75%).

    Runs the functional Weaver first to measure the reactive-ordering
    fraction for this mix, then drives the twin (3 gatekeepers, 8
    shards) and the Titan model (:class:`_TitanClients`) under closed
    loops of the same operation stream.
    """
    costs = costs or CostParams()
    reactive = (
        _functional_reactive_fraction(
            read_fraction, num_vertices, functional_ops, seed
        )
        if measure_reactive
        else 0.0
    )
    edges = graphs.social_graph(num_vertices, 5, seed)
    workload = TaoWorkload(
        graphs.vertices_of(edges), read_fraction=read_fraction, seed=seed
    )
    stream = list(workload.stream(total_ops))

    weaver_run = _closed_loop(
        _twin(3, 8, costs, edges),
        clients_weaver,
        [_tao_spec(op) for op in stream],
    )

    titan = TitanGraph(num_shards=8, costs=costs)
    titan.load(edges)
    titan_run = _closed_loop(_TitanClients(titan), clients_titan, stream)

    return SocialRunResult(
        read_fraction=read_fraction,
        clients_weaver=clients_weaver,
        clients_titan=clients_titan,
        weaver_run=weaver_run,
        titan_run=titan_run,
        reactive_fraction=reactive,
    )


def experiment_fig10(
    total_ops: int = 10_000,
    seed: int = 11,
    costs: Optional[CostParams] = None,
) -> Dict[float, SocialRunResult]:
    """Latency CDFs for the two mixes (Fig 10) — reuses the Fig 9 runs."""
    return {
        0.998: experiment_fig9(
            0.998, 50, 60, total_ops, seed=seed, costs=costs,
            measure_reactive=False,
        ),
        0.75: experiment_fig9(
            0.75, 45, 50, total_ops, seed=seed, costs=costs,
            measure_reactive=False,
        ),
    }


# ---------------------------------------------------------------------------
# Figure 11: traversal latency, Weaver vs GraphLab
# ---------------------------------------------------------------------------

@dataclass
class Fig11Result:
    weaver_run: SimClients
    graphlab_async: Histogram
    graphlab_sync: Histogram
    answers_agree: bool

    @property
    def weaver(self) -> Histogram:
        return self.weaver_run.latencies

    @property
    def speedup_vs_async(self) -> float:
        if self.weaver.mean <= 0:
            return 0.0
        return self.graphlab_async.mean / self.weaver.mean

    @property
    def speedup_vs_sync(self) -> float:
        if self.weaver.mean <= 0:
            return 0.0
        return self.graphlab_sync.mean / self.weaver.mean


def experiment_fig11(
    num_vertices: int = 300,
    num_queries: int = 30,
    num_shards: int = 8,
    num_machines: int = 8,
    seed: int = 23,
    costs: Optional[CostParams] = None,
) -> Fig11Result:
    """Reachability traversals, sequential single client (Fig 11).

    All three systems answer every query on the same graph; answers are
    cross-checked.  Weaver's queries run on the twin (2 gatekeepers,
    ``num_shards`` shards), round by round across its shards;
    GraphLab's engines charge their own coordination.
    """
    costs = costs or CostParams()
    edges = graphs.twitter_graph(num_vertices, 4, seed)
    vertices = graphs.vertices_of(edges)
    rng = random.Random(seed)
    pairs = [
        (vertices[rng.randrange(len(vertices))],
         vertices[rng.randrange(len(vertices))])
        for _ in range(num_queries)
    ]

    # One sequential client, as in the paper's setup.
    weaver_run = _closed_loop(_twin(2, num_shards, costs, edges), 1, [
        ("prog", library.Reachability(), src, library.params(target=dst))
        for src, dst in pairs
    ])

    # GraphLab, both engines (functional + cost).
    agree = True
    lat_async = Histogram("graphlab.async.latency")
    lat_sync = Histogram("graphlab.sync.latency")
    for mode, recorder in (("async", lat_async), ("sync", lat_sync)):
        engine = GraphLab(mode=mode, num_machines=num_machines, costs=costs)
        engine.load(edges)
        t = 0.0
        for i, (src, dst) in enumerate(pairs):
            reached, finish = engine.reachability(src, dst, t)
            recorder.observe(finish - t)
            t = finish
            if reached != bool(weaver_run.results[i].results):
                agree = False
    return Fig11Result(weaver_run, lat_async, lat_sync, agree)


# ---------------------------------------------------------------------------
# Figures 12 & 13: scalability microbenchmarks
# ---------------------------------------------------------------------------

@dataclass
class ScalingResult(Rows):
    runs: List[SimClients] = field(default_factory=list)

    def add(self, servers: int, run: SimClients) -> None:
        self.rows_data.append((servers, run.throughput))
        self.runs.append(run)

    @property
    def linearity(self) -> float:
        """Throughput(max servers) / (Throughput(1 server) * max servers):
        1.0 is perfectly linear scaling."""
        if len(self.rows_data) < 2:
            return 1.0
        first_n, first_t = self.rows_data[0]
        last_n, last_t = self.rows_data[-1]
        ideal = first_t / first_n * last_n
        return last_t / ideal if ideal > 0 else 0.0


def experiment_fig12(
    gatekeeper_counts: Sequence[int] = (1, 2, 3, 4, 5, 6),
    ops: int = 20_000,
    clients: int = 128,
    costs: Optional[CostParams] = None,
) -> ScalingResult:
    """get_node throughput vs gatekeeper count (Fig 12).

    get_node is vertex-local: shards do almost nothing, so the
    gatekeeper bank is the bottleneck and throughput grows linearly.
    One vertex serves every read, on twins of 8 shards.
    """
    costs = costs or CostParams()
    result = ScalingResult()
    stream = [("prog", library.GetNode(), "a", None)] * ops
    for count in gatekeeper_counts:
        twin = _twin(count, 8, costs, [("a", "b")])
        result.add(count, _closed_loop(twin, clients, stream))
    return result


def experiment_fig13(
    shard_counts: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8, 9),
    ops: int = 4_000,
    clients: int = 64,
    num_vertices: int = 300,
    seed: int = 5,
    costs: Optional[CostParams] = None,
) -> ScalingResult:
    """Clustering-coefficient throughput vs shard count (Fig 13).

    Each query fans out from a random centre to its neighbours on twins
    of 6 gatekeepers, so the degree structure of the generated graph
    sets the work.  Vertex reads cost ten times ``vertex_read_service``
    (a neighbour's scan is the whole out-edge list); at the default the
    gatekeeper bank, not the shards, caps the curve.
    """
    costs = copy.copy(costs or CostParams())
    costs.vertex_read_service *= 10
    edges = graphs.twitter_graph(num_vertices, 4, seed)
    names = graphs.vertices_of(edges)
    rng = random.Random(seed)
    stream = [
        (
            "prog",
            library.ClusteringCoefficient(),
            names[rng.randrange(len(names))],
            library.params(phase="center"),
        )
        for _ in range(ops)
    ]
    result = ScalingResult()
    for count in shard_counts:
        twin = _twin(6, count, costs, edges)
        result.add(count, _closed_loop(twin, clients, stream))
    return result


# ---------------------------------------------------------------------------
# Figure 14: coordination overhead vs announce period tau
# ---------------------------------------------------------------------------

def experiment_fig14(
    taus: Sequence[float] = (
        10 * USEC, 100 * USEC, 1 * MSEC, 10 * MSEC, 100 * MSEC, 1.0
    ),
    num_gatekeepers: int = 3,
    num_txs: int = 2_000,
    arrival_rate: float = 10_000.0,
    seed: int = 3,
) -> Rows:
    """Announce vs oracle messages per query as τ sweeps (Fig 14).

    Fully functional: transactions arrive Poisson at the gatekeeper
    bank, clocks announce every τ simulated seconds, and consecutive
    transaction pairs (the conservative same-shard rule of section 3.4)
    are ordered through a real RefinableOrdering — oracle messages are
    whatever the oracle actually had to serve.
    """
    result = Rows()
    rng = random.Random(seed)
    for tau in taus:
        gatekeepers = [
            Gatekeeper(i, num_gatekeepers) for i in range(num_gatekeepers)
        ]
        announces = 0
        now = 0.0
        next_announce = tau
        stamps = []
        for _ in range(num_txs):
            now += rng.expovariate(arrival_rate)
            while now >= next_announce:
                sync_announce_all(gatekeepers)
                announces += num_gatekeepers * (num_gatekeepers - 1)
                next_announce += tau
            gk = gatekeepers[rng.randrange(num_gatekeepers)]
            stamps.append(gk.issue_timestamp())
        oracle = TimelineOracle()
        ordering = RefinableOrdering(oracle, use_cache=True)
        for i, (a, b) in enumerate(zip(stamps, stamps[1:])):
            ordering.compare(a, b)
            # Garbage-collect settled events (section 4.5): only the
            # recent window can still be queried (the workload orders
            # adjacent arrivals), so older events leave the DAG exactly
            # as Weaver's watermark GC would retire them.
            if i % 200 == 199:
                for old in stamps[max(0, i - 399):i - 199]:
                    oracle.graph.remove_event(old)
        result.rows_data.append(
            (
                tau,
                announces / num_txs,
                oracle.stats.messages / num_txs,
            )
        )
    return result


# ---------------------------------------------------------------------------
# Ablations A1-A4
# ---------------------------------------------------------------------------

@dataclass
class CachingAblationResult:
    cold_reads: int
    cached_reads: int
    hit_rate: float
    invalidations: int

    @property
    def reads_saved_fraction(self) -> float:
        if self.cold_reads <= 0:
            return 0.0
        return 1.0 - self.cached_reads / self.cold_reads


def ablation_caching(
    num_blocks: int = 10,
    queries: int = 200,
    write_every: int = 25,
    seed: int = 17,
) -> CachingAblationResult:
    """A1: node-program memoization under a read-mostly block workload.

    Renders random blocks repeatedly with the cache on; every
    ``write_every`` queries one block gains a transaction, invalidating
    its cached render.  Reports vertex reads saved and hit rate.
    """
    gen = bitcoin.BlockchainGenerator(seed=seed, scale=0.02)
    blocks = gen.generate(range(10_000, 10_000 + num_blocks * 1000, 1000))
    db = Weaver(
        WeaverConfig(
            num_gatekeepers=2, num_shards=2, enable_program_cache=True
        )
    )
    client = WeaverClient(db)
    bitcoin.load_into_weaver(client, blocks)
    rng = random.Random(seed)
    reads_before = sum(s.stats.vertices_read for s in db.shards)
    cold_equivalent = 0
    extra = 0
    for q in range(queries):
        block = blocks[rng.randrange(len(blocks))]
        rendered = client.render_block(block.block_id, use_cache=True)
        cold_equivalent += 1 + rendered["n_tx"]
        if (q + 1) % write_every == 0:
            target = blocks[rng.randrange(len(blocks))]

            def add_tx(tx):
                nonlocal extra
                handle = tx.create_vertex(f"extra_tx{extra}")
                edge = tx.create_edge(target.block_id, handle)
                tx.set_edge_property(target.block_id, edge, "tx", True)
                extra += 1

            client.transact(add_tx)
    reads_after = sum(s.stats.vertices_read for s in db.shards)
    cache = db.program_cache
    return CachingAblationResult(
        cold_reads=cold_equivalent,
        cached_reads=reads_after - reads_before,
        hit_rate=cache.hit_rate,
        invalidations=cache.invalidations,
    )


@dataclass
class PartitionAblationResult(Rows):
    def cut_of(self, name: str) -> float:
        for row_name, cut, _ in self.rows_data:
            if row_name == name:
                return cut
        raise KeyError(name)


def ablation_partitioning(
    num_vertices: int = 1000,
    num_partitions: int = 8,
    seed: int = 31,
) -> PartitionAblationResult:
    """A2: edge cut of hash vs LDG vs restreaming LDG (section 4.6)."""
    edges = graphs.social_graph(num_vertices, 6, seed)
    adjacency = graphs.adjacency(edges)
    stream = [(v, adjacency[v]) for v in adjacency]
    result = PartitionAblationResult()
    assignments = {
        "hash": HashPartitioner(num_partitions).partition(stream),
        "ldg": LdgPartitioner(num_partitions).partition(stream),
        "restream": restream(stream, num_partitions, passes=3),
    }
    for name, assignment in assignments.items():
        cut, total = edge_cut(assignment, edges)
        result.rows_data.append(
            (
                name,
                cut / total if total else 0.0,
                balance(assignment, num_partitions),
            )
        )
    return result


@dataclass
class OracleCacheAblationResult:
    with_cache_oracle_messages: int
    without_cache_oracle_messages: int
    cache_hits: int

    @property
    def messages_saved_fraction(self) -> float:
        if self.without_cache_oracle_messages <= 0:
            return 0.0
        return 1.0 - (
            self.with_cache_oracle_messages
            / self.without_cache_oracle_messages
        )


def ablation_oracle_cache(
    num_pairs: int = 400,
    num_gatekeepers: int = 3,
    reuse: int = 4,
    seed: int = 41,
) -> OracleCacheAblationResult:
    """A3: oracle traffic saved by shard-side decision caching.

    Generates concurrent timestamp pairs (no announces) and orders each
    pair ``reuse`` times — the repeated comparisons shards make while
    merging queues — with and without the cache.
    """
    rng = random.Random(seed)

    def make_pairs():
        gatekeepers = [
            Gatekeeper(i, num_gatekeepers) for i in range(num_gatekeepers)
        ]
        pairs = []
        for _ in range(num_pairs):
            a = gatekeepers[rng.randrange(num_gatekeepers)]
            b = gatekeepers[rng.randrange(num_gatekeepers)]
            while b is a:
                b = gatekeepers[rng.randrange(num_gatekeepers)]
            pairs.append((a.issue_timestamp(), b.issue_timestamp()))
        return pairs

    results = {}
    hits = 0
    for use_cache in (True, False):
        oracle = TimelineOracle()
        ordering = RefinableOrdering(oracle, use_cache=use_cache)
        for a, b in make_pairs():
            for _ in range(reuse):
                ordering.compare(a, b)
        results[use_cache] = oracle.stats.messages
        if use_cache and ordering.cache is not None:
            hits = ordering.cache.hits
    return OracleCacheAblationResult(
        with_cache_oracle_messages=results[True],
        without_cache_oracle_messages=results[False],
        cache_hits=hits,
    )


def ablation_contention(
    skews: Sequence[float] = (0.0, 0.8, 1.6, 2.4),
    num_vertices: int = 40,
    rounds: int = 60,
    seed: int = 61,
) -> Rows:
    """A6: OCC abort rate vs write skew.

    Interleaved read-modify-write transactions target Zipf-sampled
    vertices; first-committer-wins aborts climb as the distribution
    sharpens — the contention regime the paper says OCC handles poorly
    and that motivates Weaver executing reads as node programs instead.
    """
    from ..workloads.contention import run_contention

    result = Rows()
    for skew in skews:
        db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=2))
        client = WeaverClient(db)
        names = [f"v{i}" for i in range(num_vertices)]
        with client.transaction() as tx:
            for name in names:
                tx.create_vertex(name)
        report = run_contention(
            db, names, skew=skew, rounds=rounds, seed=seed
        )
        result.rows_data.append((skew, report.abort_rate))
    return result


def ablation_freshness(
    epoch_intervals: Sequence[float] = (1.0, 5.0, 10.0),
    num_updates: int = 200,
    seed: int = 71,
) -> Rows:
    """A7: update-visibility lag, Weaver vs a Kineograph-like system.

    Kineograph buffers updates until the epoch turns, so a write becomes
    query-visible only at the next boundary (mean lag = interval / 2);
    Weaver's refinable timestamps make it visible as soon as the commit
    response returns: one commit's latency on the twin.  Rows: (epoch
    interval, Kineograph mean lag, Weaver lag).
    """
    from ..baselines.kineograph import Kineograph

    rng = random.Random(seed)
    commit = _closed_loop(
        _twin(3, 8, CostParams()), 1, [("tx", [ops.CreateVertex("v")])]
    )
    weaver_lag = commit.latencies.mean
    result = Rows()
    for interval in epoch_intervals:
        kg = Kineograph(epoch_interval=interval)
        lags = []
        for _ in range(num_updates):
            at = rng.uniform(0, interval * 20)
            lags.append(kg.visibility_lag(at))
        result.rows_data.append(
            (interval, sum(lags) / len(lags), weaver_lag)
        )
    return result


@dataclass
class RebalanceResult:
    cut_before: int
    cut_after: int
    total_edges: int
    moves: int

    @property
    def improvement(self) -> float:
        if self.cut_before == 0:
            return 0.0
        return 1.0 - self.cut_after / self.cut_before


def ablation_rebalance(
    num_vertices: int = 150,
    num_shards: int = 4,
    max_moves: int = 400,
    seed: int = 91,
) -> RebalanceResult:
    """A9: online vertex migration (section 4.6's dynamic colocation).

    Loads a power-law graph with the default balanced-but-locality-blind
    placement, then runs the greedy rebalancer and reports the edge-cut
    improvement.  Every migration carries the vertex's full version
    history, so correctness costs nothing (tested separately).
    """
    db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=num_shards))
    client = WeaverClient(db)
    edges = graphs.social_graph(num_vertices, 5, seed)
    graphs.load_into_weaver(client, edges)
    cut_before, total = db.edge_cut()
    moves = db.rebalance(max_moves=max_moves)
    cut_after, _ = db.edge_cut()
    return RebalanceResult(cut_before, cut_after, total, moves)


def ablation_store_chains(
    keys_per_tx: Sequence[int] = (1, 2, 4, 8),
    num_nodes: int = 8,
    replication: int = 2,
    txs_per_point: int = 100,
    seed: int = 81,
) -> Rows:
    """A8: linear-transaction chain cost in the distributed store.

    Warp-style commits pay one validation+application pass through every
    involved key-owner; the chain grows with the keys a transaction
    touches (saturating at the node count).  Rows: (keys per tx, mean
    chain length, messages per commit).
    """
    from ..store.distributed import DistributedStore

    rng = random.Random(seed)
    result = Rows()
    for k in keys_per_tx:
        store = DistributedStore(num_nodes, replication)
        for _ in range(txs_per_point):
            keys = [f"key{rng.randrange(10_000)}" for _ in range(k)]

            def write_all(tx, keys=keys):
                for key in keys:
                    tx.put(key, 1)

            store.transact(write_all)
        result.rows_data.append(
            (
                k,
                store.mean_chain_length,
                store.chain_messages / store.commits,
            )
        )
    return result


@dataclass
class AdaptiveTauResult:
    start_tau: float
    final_tau: float
    trajectory: List[float] = field(default_factory=list)


def ablation_adaptive_tau(
    start_tau: float,
    bounds: Tuple[float, float] = (50 * USEC, 8 * MSEC),
    windows: int = 24,
    txs_per_window: int = 20,
) -> AdaptiveTauResult:
    """A5: the section 3.5 dynamic-τ controller, end to end.

    Runs the event-driven deployment under a steady write load with the
    feedback controller enabled; records the τ trajectory from the given
    starting point.  Started at either extreme it should move toward the
    Fig 14 crossover region.
    """
    from ..db import operations as ops
    from ..sim.deployment import SimulatedWeaver, TauController

    controller = TauController(start_tau, bounds=bounds)
    sw = SimulatedWeaver(
        WeaverConfig(num_gatekeepers=3, num_shards=2),
        nop_period=500 * USEC,
        tau_controller=controller,
        adapt_window=4 * MSEC,
    )
    n = 0
    for _ in range(windows):
        for _ in range(txs_per_window):
            handle = f"v{n}"
            n += 1
            sw.submit_transaction([ops.CreateVertex(handle)])
        sw.run(sw.adapt_window)
    return AdaptiveTauResult(
        start_tau=start_tau,
        final_tau=sw.tau,
        trajectory=[tau for tau, _ in controller.adjustments],
    )


def ablation_nop_period(
    periods: Sequence[float] = (
        10 * USEC, 100 * USEC, 1 * MSEC, 10 * MSEC
    ),
    num_gatekeepers: int = 3,
    num_shards: int = 4,
    seed: int = 53,
) -> Rows:
    """A4: NOP period vs node-program delay and heartbeat overhead.

    Under light load a node program waits for the next NOP on every
    gatekeeper queue: expected delay is period/2 (plus a network hop);
    heartbeat traffic is gatekeepers x shards / period messages per
    second.  The rows quantify that tradeoff (section 4.2 defaults the
    period to 10 µs).
    """
    rng = random.Random(seed)
    net = 100 * USEC
    result = Rows()
    for period in periods:
        # Expected wait until the last of G independent uniformly-phased
        # NOP timers fires: period * G/(G+1), estimated by sampling.
        samples = [
            max(rng.random() for _ in range(num_gatekeepers)) * period
            for _ in range(2000)
        ]
        expected_delay = sum(samples) / len(samples) + net
        messages_per_second = num_gatekeepers * num_shards / period
        result.rows_data.append(
            (period, expected_delay, messages_per_second)
        )
    return result
