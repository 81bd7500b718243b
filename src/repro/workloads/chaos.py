"""Seeded chaos runs: contended writes plus reads under injected faults.

One :func:`run_chaos` call builds a :class:`SimulatedWeaver` with a
:class:`~repro.sim.faults.FaultPlan` (message drops, duplicates, delays,
a partition, and at least one gatekeeper crash and one shard crash),
drives a Zipf-contended write/read mix against it, records everything
observable into a :class:`~repro.verify.history.History`, and asks the
referee for the end-of-run verdict.  :func:`run_soak` is the long-form
variant: the same traffic in chunks with live GC, the referee
(:class:`~repro.verify.online.OnlineChecker`) attached directly so the
deployment's watermarks settle and prune it as the run goes.

Every driver here and in :mod:`repro.workloads.geo` feeds the referee
one way: a :class:`SimClient` or :class:`ProcessClient` submits the
tagged writes and reads and reports each acknowledgement to the tracer
as a ``txn.commit`` / ``program.read`` span.

Everything is derived from the single ``seed``: the fault schedule, the
Zipf targets, the submission times.  Two runs with the same seed produce
bit-for-bit identical histories (compare :meth:`History.digest`), which
is what makes a chaos failure reproducible and a determinism regression
detectable.

Writes tag each touched vertex with the writing transaction's unique
integer tag (property ``"w"``); reads are ``GetNode`` programs whose
observed tag identifies the newest write their snapshot contained.  That
one property is enough for the checker to reconstruct per-vertex write
chains and read positions.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..db.config import WeaverConfig
from ..db.operations import CreateVertex, SetVertexProperty
from ..programs.library import GetNode
from ..sim.clock import MSEC, USEC
from ..sim.deployment import SimulatedWeaver
from ..sim.faults import FaultPlan
from ..verify.history import History, HistoryChecker, Violation, decided_order
from ..verify.online import OnlineChecker
from .contention import ZipfSampler


def default_fault_plan(
    seed: int,
    duration: float,
    num_gatekeepers: int,
    num_shards: int,
    drop_rate: float = 0.05,
    duplicate_rate: float = 0.05,
    delay_rate: float = 0.1,
    extra_delay: float = 300 * USEC,
) -> FaultPlan:
    """The standard chaos mix for a run of ``duration`` seconds.

    Crashes one gatekeeper at ~35% of the horizon and one shard at ~60%
    (seed-selected indices), partitions one gatekeeper-shard pair for a
    stretch of the first half, and sprinkles probabilistic drops,
    duplicates, and delays over all message kinds.
    """
    gk_victim = seed % num_gatekeepers
    shard_victim = seed % num_shards
    part_gk = (seed + 1) % num_gatekeepers
    part_shard = (seed + 1) % num_shards
    plan = (
        FaultPlan(seed=seed)
        .drop(drop_rate)
        .duplicate(duplicate_rate)
        .delay(delay_rate, extra_delay=extra_delay)
        .partition(
            f"gk{part_gk}",
            f"shard{part_shard}",
            start=0.15 * duration,
            end=0.30 * duration,
        )
        .crash_gatekeeper(gk_victim, at=0.35 * duration)
        .crash_shard(shard_victim, at=0.60 * duration)
    )
    return plan


@dataclass
class ChaosReport:
    """Everything one seeded chaos run produced."""

    seed: int
    duration: float
    committed: int = 0
    aborted: int = 0
    reads_completed: int = 0
    reads_lost: int = 0
    recoveries: int = 0
    stragglers_dropped: int = 0
    duplicates_discarded: int = 0
    faults: Dict[str, int] = field(default_factory=dict)
    history: Optional[History] = None
    violations: List[Violation] = field(default_factory=list)
    digest: str = ""
    # Observability: commit/read latency summaries (count, p50/p95/p99 —
    # the Fig 10/11 CDF data comes from the same histograms via
    # ``metrics``), the full metric snapshot, and the run's tracer for
    # span-chain reconstruction (`repro trace`).
    tx_latency: Dict[str, float] = field(default_factory=dict)
    read_latency: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[object] = None

    @property
    def consistent(self) -> bool:
        return not self.violations


class _RefereedClient:
    """The tagged Zipf client behind every chaos, soak and geo driver.

    Tags and query ids come from one counter and targets from one seeded
    sampler, so a seed fixes the whole request stream.  Subclasses
    submit the operations; this class reports the acknowledgements to
    the deployment's tracer, which is all the referee ever sees of the
    workload.  ``report`` collects the aborted / lost / completed counts.
    """

    def __init__(self, db, report, num_vertices: int, skew: float,
                 seed: int) -> None:
        self.db = db
        self.report = report
        self.vertices = [f"v{i}" for i in range(num_vertices)]
        self.sampler = ZipfSampler(num_vertices, skew, seed=seed)
        self.tags = iter(range(10**9))

    def sample(self) -> str:
        return self.vertices[self.sampler.sample()]

    def write_targets(self) -> List[str]:
        first, second = self.sample(), self.sample()
        return [first] if first == second else [first, second]

    def committed(self, trace_id, tag, ts, targets, submitted_at,
                  at=None) -> None:
        self.db.tracer.emit(
            trace_id, "txn.commit", node="client", at=at,
            tag=tag, ts=ts, writes=tuple((v, tag) for v in targets),
            submitted_at=submitted_at,
        )

    def completed(self, trace_id, query_id, ts, target, observed,
                  submitted_at, at=None) -> None:
        self.db.tracer.emit(
            trace_id, "program.read", node="client", at=at,
            query_id=query_id, ts=ts, reads=((target, observed),),
            submitted_at=submitted_at,
        )
        self.report.reads_completed += 1


class SimClient(_RefereedClient):
    """Open-loop client of a :class:`SimulatedWeaver`: submissions are
    callbacks on the simulated clock, which also stamps the spans."""

    def _submit(self, targets: Sequence[str], create: bool = False) -> None:
        tag = next(self.tags)
        submitted_at = self.db.simulator.now
        ops = []
        for vertex in targets:
            if create:
                ops.append(CreateVertex(vertex))
            ops.append(SetVertexProperty(vertex, "w", tag))

        def on_commit(ok: bool, ts_or_exc) -> None:
            if ok:
                self.committed(
                    trace_id, tag, ts_or_exc, targets, submitted_at
                )
            elif not create:
                # ``aborted`` counts the measured workload, not setup.
                self.report.aborted += 1

        trace_id = self.db.submit_transaction(ops, callback=on_commit)

    def setup(self, step: float, settle: float) -> None:
        """Create every vertex with an initial tag, ``step`` apart, then
        let the forwards (and any deadline-delayed acks) land."""
        for vertex in self.vertices:
            self._submit((vertex,), create=True)
            self.db.run(step)
        self.db.run(settle)

    def write(self) -> None:
        self._submit(self.write_targets())

    def read(self) -> None:
        target = self.sample()
        query_id = next(self.tags)
        submitted_at = self.db.simulator.now

        def on_result(result) -> None:
            if result is None:
                self.report.reads_lost += 1
                return
            observed = None
            if result.results:
                observed = result.results[0]["properties"].get("w")
            self.completed(
                trace_id, query_id, result.timestamp, target, observed,
                submitted_at,
            )

        trace_id = self.db.submit_program(
            GetNode(), target, callback=on_result
        )

    def drive(self, duration: float, tx_period: float,
              read_period: float) -> float:
        """Interleave writers and readers for ``duration`` simulated
        seconds; returns the horizon, which the last submission precedes."""
        sim = self.db
        horizon = sim.simulator.now + duration
        next_tx = sim.simulator.now + tx_period
        next_read = sim.simulator.now + read_period
        while min(next_tx, next_read) < horizon:
            if next_tx <= next_read:
                sim.run(next_tx - sim.simulator.now)
                self.write()
                next_tx += tx_period
            else:
                sim.run(next_read - sim.simulator.now)
                self.read()
                next_read += read_period
        return horizon


class ProcessClient(_RefereedClient):
    """Closed-loop client of a :class:`ProcessWeaver`: calls block, and
    the wall clock stamps the spans on both sides of each call."""

    def _commit(self, targets: Sequence[str], create: bool = False) -> None:
        tag = next(self.tags)
        submitted_at = time.perf_counter()
        tx = self.db.begin_transaction()
        for vertex in targets:
            if create:
                tx.create_vertex(vertex)
            tx.set_property(vertex, "w", tag)
        ts = tx.commit()
        self.committed(
            tx.trace_id, tag, ts, targets, submitted_at,
            at=time.perf_counter(),
        )

    def setup(self) -> None:
        for vertex in self.vertices:
            self._commit((vertex,), create=True)
        self.db.drain()

    def write(self) -> None:
        self._commit(self.write_targets())

    def read(self, target: Optional[str] = None) -> None:
        target = target or self.sample()
        query_id = next(self.tags)
        submitted_at = time.perf_counter()
        result = self.db.run_program(GetNode(), target)
        self.completed(
            self.db.tracer.next_trace_id(), query_id, result.timestamp,
            target, result.value["properties"].get("w"), submitted_at,
            at=time.perf_counter(),
        )


def run_chaos(
    seed: int,
    duration: float = 60 * MSEC,
    num_vertices: int = 12,
    skew: float = 0.8,
    tx_period: float = 800 * USEC,
    read_period: float = 1900 * USEC,
    config: Optional[WeaverConfig] = None,
    plan: Optional[FaultPlan] = None,
    heartbeat_period: float = 2 * MSEC,
    drain: float = 80 * MSEC,
) -> ChaosReport:
    """One seeded chaos run; returns the checked :class:`ChaosReport`.

    Phases: *setup* (create and tag every vertex, no faults are usually
    scheduled that early), *chaos* (writers and readers on Zipf-sampled
    targets for ``duration`` simulated seconds, while the plan's crashes,
    partition, and message faults play out), *drain* (let partitions
    heal, recoveries finish, and every outstanding read complete).
    """
    config = config or WeaverConfig()
    if plan is None:
        plan = default_fault_plan(
            seed, duration, config.num_gatekeepers, config.num_shards
        )
    sim = SimulatedWeaver(
        config=config,
        heartbeat_period=heartbeat_period,
        # One GC pass well after the horizon: mid-run collection would
        # only shrink what the checker can decide, not break it, but
        # keeping decisions makes the check as strong as possible.
        gc_period=10 * duration + drain,
        fault_plan=plan,
    )
    # The record keeper consumes the trace stream: shard.apply and
    # store.commit spans come from the deployment, txn.commit and
    # program.read from the client below.
    history = History()
    history.attach(sim.tracer)
    report = ChaosReport(seed=seed, duration=duration)
    client = SimClient(sim, report, num_vertices, skew, seed)

    client.setup(step=100 * USEC, settle=2 * MSEC)
    client.drive(duration, tx_period, read_period)
    # Drain: heal, recover, complete.
    sim.run(duration * 0.5)
    sim.run_until_quiet(max_extra=drain)

    report.committed = len(history.commits)
    report.recoveries = sim.recoveries
    report.stragglers_dropped = sim.stragglers_dropped
    report.duplicates_discarded = sum(
        shard.stats.duplicates_discarded for shard in sim.shards
    )
    report.faults = dict(sim.network.stats.faults)
    report.history = history
    report.digest = history.digest()
    report.violations = HistoryChecker(
        history, decided_order(sim.oracle)
    ).check()
    report.tx_latency = sim.latency_tx.summary()
    report.read_latency = sim.latency_program.summary()
    report.metrics = sim.metrics.snapshot()
    report.tracer = sim.tracer
    return report


# ---------------------------------------------------------------------------
# Soak: long-running chunked workload with the referee always on.
# ---------------------------------------------------------------------------


@dataclass
class SoakReport:
    """Everything one soak run produced (see :func:`run_soak`)."""

    seed: int
    transport: str
    store: str = "memory"
    chunks: int = 0
    committed: int = 0
    aborted: int = 0
    reads_completed: int = 0
    reads_lost: int = 0
    recoveries: int = 0
    watermarks: int = 0
    wall_seconds: float = 0.0
    throughput: float = 0.0  # commits per wall-clock second
    digest: str = ""
    violations: List[Violation] = field(default_factory=list)
    # Memory bound: retained-window size sampled after each chunk, and
    # the commit count at the same instants (growth vs flatness).
    window_samples: List[int] = field(default_factory=list)
    committed_samples: List[int] = field(default_factory=list)
    window_peak: int = 0
    window_final: int = 0
    pruned: int = 0
    # The price of "always on": events the referee consumed and the
    # wall-clock seconds spent inside it (consume, settle, finalize).
    referee_events: int = 0
    referee_seconds: float = 0.0
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


class _SoakReferee:
    """The soak harness's hold on its :class:`OnlineChecker`: attaches it
    as a timed tracer sink, samples it per chunk, and folds its verdict
    and gauges into the :class:`SoakReport`."""

    def __init__(self, db, report: SoakReport) -> None:
        self.report = report
        self.checker = OnlineChecker(
            decided_order(db.oracle), registry=db.metrics
        )
        db.tracer.add_sink(self._consume)

    def _consume(self, span) -> None:
        started = time.perf_counter()
        self.checker.consume(span)
        self.report.referee_seconds += time.perf_counter() - started

    def sample(self) -> None:
        self.report.window_samples.append(self.checker.window_size())
        self.report.committed_samples.append(self.checker.stats.commits)

    def finish(self, chunks: int, started: float, recoveries: int) -> None:
        report, checker = self.report, self.checker
        report.chunks = chunks
        report.wall_seconds = time.monotonic() - started
        finalize_started = time.perf_counter()
        report.violations = checker.finalize()
        report.referee_seconds += time.perf_counter() - finalize_started
        report.referee_events = checker.stats.events
        report.digest = checker.digest()
        report.committed = checker.stats.commits
        report.recoveries = recoveries
        report.watermarks = checker.stats.watermarks
        report.pruned = checker.stats.pruned
        report.window_peak = checker.stats.window_peak
        report.window_final = checker.window_size()
        if report.wall_seconds > 0:
            report.throughput = report.committed / report.wall_seconds


def _more_chunks(chunk: int, chunks: Optional[int],
                 deadline: Optional[float]) -> bool:
    if chunks is not None and chunk >= chunks:
        return False
    return deadline is None or time.monotonic() < deadline


def run_soak(
    seed: int,
    transport: str = "sim",
    chunks: Optional[int] = None,
    wall_seconds: Optional[float] = None,
    chunk_horizon: float = 30 * MSEC,
    num_vertices: int = 12,
    skew: float = 0.8,
    tx_period: float = 800 * USEC,
    read_period: float = 1900 * USEC,
    crash_every: int = 4,
    config: Optional[WeaverConfig] = None,
    store: str = "memory",
    store_cache_bytes: Optional[int] = None,
) -> SoakReport:
    """A long-running seeded Zipf + fault workload, referee always on.

    The run is *chunked*: each chunk drives ``chunk_horizon`` of Zipf
    writes/reads (sim) or a fixed op batch (process transport), with a
    crash-and-recover injected every ``crash_every`` chunks and the GC
    watermark advancing throughout — so the :class:`OnlineChecker`
    settles and prunes continuously instead of buffering the whole run.
    After every chunk the harness samples the checker's retained-window
    size; the report prices the referee (events, seconds inside it).

    Stop condition: ``chunks`` (deterministic, used by tests) or
    ``wall_seconds`` (the CLI's ``repro soak --duration``); with
    neither, 8 chunks.

    ``store="sqlite"`` runs the whole soak on the durable SQLite/WAL
    backend in a temporary database (removed afterwards): commits go
    through real OCC-over-SQL, and process-transport crash recovery
    reopens the database in the replacement worker instead of shipping
    a dict snapshot.  ``store_cache_bytes`` bounds its page cache, so a
    small budget soaks the larger-than-RAM paging paths too.
    """
    if transport not in ("sim", "process"):
        raise ValueError(f"unknown transport {transport!r}")
    if store not in ("memory", "sqlite"):
        raise ValueError(f"unknown store {store!r}")
    if chunks is None and wall_seconds is None:
        chunks = 8
    tmpdir: Optional[str] = None
    if store == "sqlite":
        tmpdir = tempfile.mkdtemp(prefix="weaver-soak-")
        base = config or WeaverConfig(num_gatekeepers=2, num_shards=2)
        config = dataclasses.replace(
            base,
            store_backend="sqlite",
            store_path=os.path.join(tmpdir, "soak.db"),
            store_cache_bytes=(
                store_cache_bytes if store_cache_bytes is not None
                else base.store_cache_bytes
            ),
        )
    try:
        if transport == "sim":
            config = config or WeaverConfig()
            # Message-level faults stay on for the whole run; crashes
            # are injected per chunk so an unbounded run keeps faulting.
            plan = (
                FaultPlan(seed=seed)
                .drop(0.03)
                .duplicate(0.03)
                .delay(0.08, extra_delay=200 * USEC)
            )
            sim = SimulatedWeaver(
                config=config,
                heartbeat_period=2 * MSEC,
                # Live GC: the watermark advances twice per chunk, which
                # is the whole point — the referee must keep up with it.
                gc_period=chunk_horizon / 2,
                fault_plan=plan,
            )
            report = soak_sim(
                sim, seed, chunks=chunks, wall_seconds=wall_seconds,
                chunk_horizon=chunk_horizon, num_vertices=num_vertices,
                skew=skew, tx_period=tx_period, read_period=read_period,
                crash_every=crash_every, setup_step=100 * USEC,
            )
        else:
            report = _soak_process(
                seed, chunks, wall_seconds, num_vertices, skew,
                crash_every, config,
            )
    finally:
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)
    report.store = store
    return report


def soak_sim(
    sim: SimulatedWeaver, seed, *, chunks, wall_seconds, chunk_horizon,
    num_vertices, skew, tx_period, read_period, crash_every,
    setup_step: float, reach: float = 0.0,
) -> SoakReport:
    """The chunked soak loop on an already-built simulated deployment.

    ``reach`` is the deployment's worst one-way latency (geo): setup and
    the final drain wait it out so deadline-delayed acks land.
    """
    config = sim.config
    report = SoakReport(seed=seed, transport="sim")
    referee = _SoakReferee(sim, report)
    client = SimClient(sim, report, num_vertices, skew, seed)
    client.setup(step=setup_step, settle=2 * MSEC + reach)

    started = time.monotonic()
    deadline = None if wall_seconds is None else started + wall_seconds
    chunk = 0
    while _more_chunks(chunk, chunks, deadline):
        if crash_every and chunk % crash_every == crash_every - 1:
            cycle = chunk // crash_every
            if cycle % 2 == 0:
                sim.crash_shard((seed + cycle) % config.num_shards)
            else:
                sim.crash_gatekeeper(
                    (seed + cycle) % config.num_gatekeepers
                )
        horizon = client.drive(chunk_horizon, tx_period, read_period)
        sim.run(horizon - sim.simulator.now)
        chunk += 1
        referee.sample()

    sim.run(chunk_horizon * 0.5 + reach)
    sim.run_until_quiet(max_extra=80 * MSEC)
    referee.finish(chunk, started, sim.recoveries)
    report.metrics = sim.metrics.snapshot()
    return report


def _soak_process(
    seed, chunks, wall_seconds, num_vertices, skew, crash_every, config,
    writes_per_chunk: int = 10, reads_per_chunk: int = 3,
) -> SoakReport:
    from ..cluster.process import ProcessWeaver

    config = config or WeaverConfig(num_shards=2, num_gatekeepers=2)
    report = SoakReport(seed=seed, transport="process")

    with ProcessWeaver(config) as db:
        referee = _SoakReferee(db, report)
        client = ProcessClient(db, report, num_vertices, skew, seed)
        client.setup()

        started = time.monotonic()
        deadline = None if wall_seconds is None else started + wall_seconds
        chunk = 0
        while _more_chunks(chunk, chunks, deadline):
            if crash_every and chunk % crash_every == crash_every - 1:
                victim = (seed + chunk // crash_every) % config.num_shards
                db.kill_shard_worker(victim)
                db.recover_shard(victim)
            for i in range(writes_per_chunk):
                client.write()
                if i % (writes_per_chunk // reads_per_chunk + 1) == 1:
                    client.read()
            db.drain()
            # Advance the GC watermark: emits the gc.watermark span the
            # checker settles on, then collects below it.
            db.collect_garbage()
            chunk += 1
            referee.sample()

        db.drain()
        client.read(client.vertices[0])
        client.read(client.vertices[1])
        referee.finish(chunk, started, db.recoveries)
        report.metrics = db.metrics.snapshot()
    return report
