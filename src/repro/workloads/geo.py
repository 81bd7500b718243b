"""Geo-distributed scenario: regions, deadlines, and the oracle tradeoff.

One :func:`run_geo` call builds a :class:`SimulatedWeaver` spanning 2-3
regions connected by an asymmetric wide-area latency matrix, drives a
Zipf write/read mix whose multi-vertex transactions routinely straddle
regions, and measures what the paper's Fig 14 measures — coordination
per transaction — in the geo shape: how often ordering had to call the
timeline oracle, and what the commit latency looked like, as functions
of the announce period tau.

The deadline fast path (Tiga-style: every geo stamp carries a future
deadline synthesized from the synchronized clock plus the issuing
region's measured one-way reach, and concurrent stamps whose deadlines
differ by more than the clock-skew bound order without any oracle call)
can be switched off per run, so :func:`geo_sweep` produces matched
fastpath/oracle-only pairs at equal tau — the comparison recorded in
``BENCH_geo.json``.

Every run is refereed the way the chaos runs are: the same
:class:`~repro.workloads.chaos.SimClient` feeds a
:class:`~repro.verify.history.History`, and the run's verdict is the
referee's end-of-run one.

:func:`run_geo_soak` is the long-form variant — :func:`~repro.workloads.
chaos.run_soak`'s chunked Zipf traffic transplanted into the geo
cluster, with per-chunk crashes and a full region partition, the
referee settling on the live GC watermarks.  ``transport="process"``
runs the standard soak against a real multiprocess cluster built with
the geo config (regions shape the oracle wiring; the latency matrix is
simulator-only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..db.config import WeaverConfig
from ..sim.clock import MSEC, USEC
from ..sim.deployment import SimulatedWeaver
from ..sim.faults import FaultPlan
from ..sim.network import RegionTopology
from ..verify.history import History, HistoryChecker, Violation, decided_order
from .chaos import SimClient, SoakReport, run_soak, soak_sim


def default_geo_topology(
    num_regions: int = 3,
    intra: float = 20 * USEC,
    scale: float = 1.0,
) -> RegionTopology:
    """An asymmetric 2- or 3-region wide-area latency matrix.

    The numbers are deliberately unequal in both directions (routing
    asymmetry), so nothing in the deadline path can get away with
    assuming a symmetric matrix.  ``scale`` shrinks the wide-area edges
    uniformly — soak tests use a smaller world so deadline-delayed acks
    stay well inside one chunk horizon.
    """
    if num_regions == 2:
        lat = [
            [intra, 6.0 * MSEC * scale],
            [6.5 * MSEC * scale, intra],
        ]
        jit = [
            [2 * USEC, 150 * USEC * scale],
            [2 * USEC, 2 * USEC],
        ]
    elif num_regions == 3:
        lat = [
            [intra, 6.0 * MSEC * scale, 9.0 * MSEC * scale],
            [6.5 * MSEC * scale, intra, 4.0 * MSEC * scale],
            [9.5 * MSEC * scale, 4.5 * MSEC * scale, intra],
        ]
        jit = [
            [2 * USEC, 150 * USEC * scale, 200 * USEC * scale],
            [150 * USEC * scale, 2 * USEC, 100 * USEC * scale],
            [200 * USEC * scale, 100 * USEC * scale, 2 * USEC],
        ]
    else:
        raise ValueError("default topology covers 2 or 3 regions")
    return RegionTopology(lat, jit)


@dataclass
class GeoReport:
    """Everything one geo run produced."""

    seed: int
    num_regions: int
    tau: float
    fastpath: bool
    duration: float
    committed: int = 0
    aborted: int = 0
    reads_completed: int = 0
    reads_lost: int = 0
    # Coordination accounting: ``oracle_calls`` is the *aggregated*
    # count (chain head + every region client's locally-served queries);
    # ``oracle_calls_head`` is what the pre-fix accounting saw.
    oracle_calls: int = 0
    oracle_calls_head: int = 0
    announce_messages: int = 0
    deadline_fastpath: int = 0
    deadline_fallback: int = 0
    tx_latency: Dict[str, float] = field(default_factory=dict)
    read_latency: Dict[str, float] = field(default_factory=dict)
    region_metrics: Dict[str, float] = field(default_factory=dict)
    digest: str = ""
    violations: List[Violation] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.violations

    @property
    def oracle_rate(self) -> float:
        """Oracle calls per committed transaction (Fig 14's y-axis)."""
        return self.oracle_calls / self.committed if self.committed else 0.0


def run_geo(
    seed: int,
    num_regions: int = 3,
    tau: float = 100 * USEC,
    duration: float = 40 * MSEC,
    num_vertices: int = 12,
    skew: float = 0.8,
    tx_period: float = 800 * USEC,
    read_period: float = 1900 * USEC,
    topology: Optional[RegionTopology] = None,
    plan: Optional[FaultPlan] = None,
    fastpath: bool = True,
    nop_period: float = 200 * USEC,
    drain: float = 60 * MSEC,
    config: Optional[WeaverConfig] = None,
) -> GeoReport:
    """One seeded geo run; returns the checked :class:`GeoReport`.

    ``fastpath=False`` is the oracle-only baseline at equal tau: the
    deployment is identical (same topology, same deadline stamps, same
    deadline-delayed commit acks), but every shard's ordering runs with
    ``skew_bound=None`` so concurrent comparisons go to the vector
    clocks, the cache, and the oracle — never the deadlines.  Whatever
    separates the two runs' oracle-call counts is the fast path's doing.
    """
    config = config or WeaverConfig(
        num_gatekeepers=num_regions, num_shards=num_regions,
        num_regions=num_regions,
    )
    topology = topology or default_geo_topology(num_regions)
    sim = SimulatedWeaver(
        config=config,
        tau=tau,
        nop_period=nop_period,
        heartbeat_period=4 * MSEC,
        gc_period=10 * duration + drain,
        fault_plan=plan,
        topology=topology,
    )
    if not fastpath:
        sim.skew_bound = None  # recovery replacements inherit this
        for shard in sim.shards:
            shard.ordering.skew_bound = None
    history = History()
    history.attach(sim.tracer)
    report = GeoReport(
        seed=seed, num_regions=num_regions, tau=tau,
        fastpath=fastpath, duration=duration,
    )
    client = SimClient(sim, report, num_vertices, skew, seed)

    # Deadline-delayed acks: let every setup commit land before timing.
    client.setup(step=200 * USEC, settle=2 * MSEC + topology.max_reach())
    # Measured phase: cross-region writers and readers.
    client.drive(duration, tx_period, read_period)
    sim.run(topology.max_reach() + duration * 0.25)
    sim.run_until_quiet(max_extra=drain)

    report.committed = len(history.commits)
    report.oracle_calls = sim.oracle_messages()
    report.oracle_calls_head = sim.oracle.stats.messages
    report.announce_messages = sim.announce_messages()
    snap = sim.metrics.snapshot()
    report.deadline_fastpath = int(snap.get("ordering.deadline_fastpath", 0))
    report.deadline_fallback = int(snap.get("ordering.deadline_fallback", 0))
    report.region_metrics = {
        key: value for key, value in snap.items()
        if key.startswith("region.")
    }
    report.tx_latency = sim.latency_tx.summary()
    report.read_latency = sim.latency_program.summary()
    report.digest = history.digest()
    report.violations = HistoryChecker(
        history, decided_order(sim.oracle)
    ).check()
    return report


def geo_sweep(
    seed: int = 7,
    taus: Optional[List[float]] = None,
    num_regions: int = 3,
    duration: float = 40 * MSEC,
    **kwargs,
) -> dict:
    """Matched fastpath/oracle-only runs per tau — ``BENCH_geo.json``.

    Each tau gets two runs differing only in the ordering's deadline
    fast path.  The returned dict is JSON-ready; ``consistent`` must be
    True on every point (the referee's verdict), and the acceptance
    claim lives in ``oracle_reduction`` (baseline calls / fastpath
    calls, per tau).
    """
    taus = taus or [50 * USEC, 200 * USEC, 800 * USEC]
    points = []
    for tau in taus:
        pair = {}
        for fastpath in (True, False):
            rep = run_geo(
                seed, num_regions=num_regions, tau=tau,
                duration=duration, fastpath=fastpath, **kwargs,
            )
            pair["fastpath" if fastpath else "baseline"] = {
                "tau": tau,
                "committed": rep.committed,
                "aborted": rep.aborted,
                "reads_completed": rep.reads_completed,
                "oracle_calls": rep.oracle_calls,
                "oracle_calls_head": rep.oracle_calls_head,
                "oracle_rate": rep.oracle_rate,
                "announce_messages": rep.announce_messages,
                "deadline_fastpath": rep.deadline_fastpath,
                "deadline_fallback": rep.deadline_fallback,
                "tx_p50": rep.tx_latency.get("p50", 0.0),
                "tx_p99": rep.tx_latency.get("p99", 0.0),
                "digest": rep.digest,
                "violations": len(rep.violations),
                "consistent": rep.consistent,
            }
        base = pair["baseline"]["oracle_calls"]
        fast = pair["fastpath"]["oracle_calls"]
        pair["tau"] = tau
        pair["oracle_reduction"] = (base / fast) if fast else float(base)
        points.append(pair)
    return {
        "seed": seed,
        "num_regions": num_regions,
        "duration": duration,
        "taus": taus,
        "points": points,
        "all_consistent": all(
            p[mode]["consistent"]
            for p in points for mode in ("fastpath", "baseline")
        ),
    }


# ---------------------------------------------------------------------------
# Geo soak: run_soak's chunked traffic inside the geo cluster.
# ---------------------------------------------------------------------------


def region_partition_plan(
    seed: int,
    topology: RegionTopology,
    region_a: int,
    region_b: int,
    start: float,
    end: float,
    drop_rate: float = 0.02,
) -> FaultPlan:
    """Faults for a geo soak: light message chaos plus a *region*
    partition — every link between a server in ``region_a`` and one in
    ``region_b`` is cut for [start, end).  Server placement is read from
    the topology, so the plan always matches the deployment."""
    plan = (
        FaultPlan(seed=seed)
        .drop(drop_rate)
        .duplicate(drop_rate)
        .delay(0.05, extra_delay=150 * USEC)
    )
    names = sorted(topology.assignments)
    for a in names:
        if topology.region_of(a) != region_a:
            continue
        for b in names:
            if topology.region_of(b) != region_b:
                continue
            plan.partition(a, b, start=start, end=end)
    return plan


def run_geo_soak(
    seed: int,
    transport: str = "sim",
    chunks: int = 4,
    chunk_horizon: float = 20 * MSEC,
    num_regions: int = 2,
    num_vertices: int = 10,
    skew: float = 0.8,
    crash_every: int = 2,
) -> SoakReport:
    """Chunked Zipf soak in the geo cluster, referee always on.

    ``transport="sim"`` mirrors :func:`~repro.workloads.chaos.run_soak`'s
    sim arm on a geo deployment: a scaled-down wide-area topology, a
    gatekeeper/shard crash every ``crash_every`` chunks, and a full
    region partition across the middle chunks, through the same
    :func:`~repro.workloads.chaos.soak_sim` loop.
    ``transport="process"`` delegates to :func:`run_soak` with the geo
    cluster shape (``num_regions`` in the config wires the region oracle
    clients; a real network brings its own latencies).
    """
    if transport == "process":
        return run_soak(
            seed,
            transport="process",
            chunks=chunks,
            num_vertices=num_vertices,
            skew=skew,
            crash_every=crash_every,
            config=WeaverConfig(
                num_gatekeepers=2, num_shards=2, num_regions=num_regions
            ),
        )
    if transport != "sim":
        raise ValueError(f"unknown transport {transport!r}")

    config = WeaverConfig(
        num_gatekeepers=num_regions, num_shards=num_regions,
        num_regions=num_regions,
    )
    # A smaller world than run_geo's: deadline-delayed acks must clear
    # well inside one chunk horizon or the per-chunk samples starve.
    topology = default_geo_topology(num_regions, scale=0.25)
    # Placement happens inside SimulatedWeaver, but the partition plan
    # needs it up front — mirror the builder's round-robin here.
    for i in range(config.num_gatekeepers):
        topology.assign(f"gk{i}", i % num_regions)
    for i in range(config.num_shards):
        topology.assign(f"shard{i}", i % num_regions)
    total = chunks * chunk_horizon
    plan = region_partition_plan(
        seed, topology, 0, 1 % num_regions,
        start=0.35 * total, end=0.55 * total,
    )
    sim = SimulatedWeaver(
        config=config,
        tau=100 * USEC,
        nop_period=200 * USEC,
        heartbeat_period=4 * MSEC,
        gc_period=chunk_horizon / 2,
        fault_plan=plan,
        topology=topology,
    )
    return soak_sim(
        sim, seed, chunks=chunks, wall_seconds=None,
        chunk_horizon=chunk_horizon, num_vertices=num_vertices, skew=skew,
        tx_period=900 * USEC, read_period=2100 * USEC,
        crash_every=crash_every, setup_step=200 * USEC,
        reach=topology.max_reach(),
    )
