"""From raw run results to the named metrics of ``BENCHMARK.json``.

``end_to_end`` reads one untraced, time-bounded run; ``per_layer`` reads a
traced run and the untraced run of the same ops (which also supplies the
caller's p99s).  Times come from the
spans ``tracing.py`` wraps around each layer's public functions; counts
come from the program's own ``db.metrics.snapshot()`` deltas over the
window.  Everything is per benchmark op unless its name says otherwise.

"busy" is the total time inside a layer's spans, "self" is that minus the
spans nested in it.  A metric that does not apply to a workload (the
durable store on a memory workload, the wire on the in-process one) is
reported as 0 — that zero is a prediction the ledger checks, not a gap.
"""

from __future__ import annotations

from typing import Dict, Tuple

Metric = Tuple[float, str]

# name -> (unit, better, regression bound as a share of the parent's median):
# the gated metrics, the ones ``BENCHMARK.json`` lists.  Every bound is the
# contract's maximum: the shared VM this was built on has phases, minutes
# long, in which identical code runs 20-50% slower, and even scaled by the
# host probe ten runs spread by 3-9% (README, "Steadiness"); a bound has to
# sit three times clear of that not to reject changes at random.  Peak RSS
# is bimodal on ``traverse`` (160 or 174 MB, same seed), 7.5% by itself.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "throughput_ops_s": ("1/s", "higher", 0.25),
    "read_p50_ms": ("ms", "lower", 0.25),
    "write_p50_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
}

# Measured by the same run and printed beside the gated ones, but not in
# ``BENCHMARK.json``: a p99 spreads half as wide again as its p50 between
# runs of identical code (past a 0.25 bound in a noisy phase), and with every
# process on one CPU ``cpu_ms_per_op`` is 1000 / ``throughput_ops_s``.  The
# ledger carries both p99s (``client.*``) and the CPU split by process
# (``host.*``) from the fixed-count pass.
UNGATED = {
    "read_p99_ms": "ms",
    "write_p99_ms": "ms",
    "cpu_ms_per_op": "ms",
}

# Sample floors below which a percentile is printed with a warning.
MIN_P50_SAMPLES = 100
MIN_P99_SAMPLES = 1000

# name -> (unit, better).  "better" is the direction that usually helps the
# end-to-end metric the README maps it to; a ledger entry has no bound.
PER_LAYER = {
    # client: what the caller saw in the untraced fixed-count run
    "client.read_p99_ms": ("ms", "lower"),
    "client.write_p99_ms": ("ms", "lower"),
    # db / cluster.process
    "db.run_program.self_us_per_op": ("us", "lower"),
    "db.commit.self_us_per_op": ("us", "lower"),
    "db.readiness_storms_per_op": ("count", "lower"),
    "db.gc.busy_ms_per_cycle": ("ms", "lower"),
    # core.gatekeeper
    "gatekeeper.commit.self_us_per_op": ("us", "lower"),
    "gatekeeper.announce.busy_us_per_op": ("us", "lower"),
    "gatekeeper.announces_per_op": ("count", "lower"),
    "gatekeeper.nops_per_op": ("count", "lower"),
    # core.ordering
    "ordering.compares_per_op": ("count", "lower"),
    "ordering.reactive_fraction": ("ratio", "lower"),
    "ordering.cache_hit_ratio": ("ratio", "higher"),
    # core.oracle
    "oracle.order.busy_us_per_op": ("us", "lower"),
    "oracle.messages_per_op": ("count", "lower"),
    "oracle.bfs_expansions_per_decision": ("count", "lower"),
    "oracle.reach_cache_hit_ratio": ("ratio", "higher"),
    "oracle.events_collected_per_gc": ("count", "higher"),
    # store.kvstore
    "store.commit.busy_us_per_op": ("us", "lower"),
    "store.read.busy_us_per_op": ("us", "lower"),
    "store.reads_per_op": ("count", "lower"),
    "store.abort_ratio": ("ratio", "lower"),
    # store.durable
    "store.durable.page_cache_hit_ratio": ("ratio", "higher"),
    "store.durable.evictions_per_op": ("count", "lower"),
    "store.durable.file_bytes_per_edge": ("B", "lower"),
    "store.compaction.busy_ms_per_gc": ("ms", "lower"),
    "store.records_collected_per_gc": ("count", "higher"),
    # cluster.wire
    "wire.client.codec_us_per_op": ("us", "lower"),
    "wire.worker.codec_us_per_op": ("us", "lower"),
    "wire.bytes_per_op": ("B", "lower"),
    # cluster.transport
    "transport.request.wait_us_per_op": ("us", "lower"),
    "transport.send.busy_us_per_op": ("us", "lower"),
    "transport.requests_per_op": ("count", "lower"),
    "transport.frames_per_op": ("count", "lower"),
    "transport.batch_fill": ("count", "higher"),
    "transport.worker.peer_bytes_per_op": ("B", "lower"),
    # cluster.shard
    "shard.apply.busy_us_per_op": ("us", "lower"),
    "shard.enqueue.busy_us_per_op": ("us", "lower"),
    "shard.snapshot.self_us_per_op": ("us", "lower"),
    "shard.transactions_applied_per_op": ("count", "lower"),
    "shard.nops_applied_per_op": ("count", "lower"),
    "shard.vertices_read_per_op": ("count", "lower"),
    # cluster.worker
    "worker.resident.rounds_per_query": ("count", "lower"),
    "worker.resident.forwards_per_query": ("count", "lower"),
    "worker.resident.entries_per_query": ("count", "lower"),
    "worker.idle_share": ("ratio", "lower"),
    # programs
    "programs.execute.busy_us_per_op": ("us", "lower"),
    "programs.resolve_many.busy_us_per_op": ("us", "lower"),
    "programs.vertices_resolved_per_op": ("count", "lower"),
    "programs.rounds_per_op": ("count", "lower"),
    "programs.snapshots_created_per_op": ("count", "lower"),
    "programs.dedup_hit_ratio": ("ratio", "higher"),
    # obs
    "obs.spans_per_op": ("count", "lower"),
    "obs.tracing_overhead_ratio": ("ratio", "lower"),
    # host: the harness's own view
    "host.client_cpu_us_per_op": ("us", "lower"),
    "host.worker_cpu_us_per_op": ("us", "lower"),
    "host.oracle_cpu_us_per_op": ("us", "lower"),
    "host.parallelism": ("ratio", "higher"),
    "host.unattributed_share": ("ratio", "lower"),
    "host.calibration_ms": ("ms", "lower"),
    "host.cpu_count": ("count", "higher"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(run: dict, setup_s: float) -> Dict[str, Metric]:
    """The user-visible metrics of one ``timed`` run, gated ones first.
    Throughput, CPU per op and the percentiles are already medians over
    the window's slices (``harness.summarize``); ``setup_s`` is passed in
    because ``run.py`` takes the median over several set-ups."""
    read, write = run["latency"]["read"], run["latency"]["write"]
    values = {
        "setup_s": setup_s,
        "throughput_ops_s": run["throughput_ops_s"],
        "read_p50_ms": read["p50_ms"],
        "read_p99_ms": read["p99_ms"],
        "write_p50_ms": write["p50_ms"],
        "write_p99_ms": write["p99_ms"],
        "cpu_ms_per_op": run["cpu_ms_per_op"],
        "peak_rss_mb": sum(run["rss_mb"].values()),
    }
    units = {name: spec[0] for name, spec in END_TO_END.items()}
    units.update(UNGATED)
    return {name: (values[name], unit) for name, unit in units.items()}


class _Spans:
    """Per-name span aggregates of one traced run, by process role."""

    def __init__(self, spans: Dict[str, Dict[str, list]]):
        self._spans = spans
        self.client = ["client"]
        self.workers = [role for role in spans if role.startswith("shard")]
        self.everyone = list(spans)

    def _sum(self, roles, name: str, column: int) -> float:
        return sum(
            self._spans[role][name][column]
            for role in roles
            if name in self._spans.get(role, {})
        )

    def count(self, roles, name: str) -> float:
        return self._sum(roles, name, 0)

    def busy(self, roles, name: str) -> float:
        return self._sum(roles, name, 1)

    def self_time(self, roles, name: str) -> float:
        return self._sum(roles, name, 2)

    def client_layer_self(self) -> float:
        """Client seconds covered by some layer's self time (everything
        but the harness's own per-op span)."""
        return sum(
            entry[2] for name, entry in self._spans["client"].items()
            if name != "bench.op"
        )


def per_layer(traced: dict, fixed: dict) -> Dict[str, Metric]:
    """The ledger of one ``traced`` run; ``fixed`` is the untraced run of
    the same ops, the base of the overhead ratio."""
    ops = traced["ops"]
    wall = traced["wall_s"]
    c = traced["counters"]
    spans = _Spans(traced["spans"])
    cycles = traced["gc_cycles"]
    cpu = traced["cpu_s"]
    # Shards run in the client process in the direct deployment.
    shard_roles = spans.workers or spans.client
    us = 1e6 / ops if ops else 0.0

    compares = (
        c.get("ordering.proactive", 0) + c.get("ordering.cached", 0)
        + c.get("ordering.reactive", 0)
    )
    queries = c.get("program.resident.programs_coordinated", 0)
    n_workers = traced["n_workers"]
    values = {
        "client.read_p99_ms": fixed["latency"]["read"]["p99_ms"],
        "client.write_p99_ms": fixed["latency"]["write"]["p99_ms"],
        "db.run_program.self_us_per_op":
            spans.self_time(spans.client, "db.run_program") * us,
        "db.commit.self_us_per_op":
            spans.self_time(spans.client, "db.commit") * us,
        "db.readiness_storms_per_op":
            _ratio(c.get("program.readiness_storms", 0), ops),
        "db.gc.busy_ms_per_cycle":
            _ratio(spans.busy(spans.client, "db.gc") * 1e3, cycles),
        "gatekeeper.commit.self_us_per_op":
            spans.self_time(spans.client, "gatekeeper.commit") * us,
        "gatekeeper.announce.busy_us_per_op":
            spans.busy(spans.client, "gatekeeper.announce") * us,
        "gatekeeper.announces_per_op":
            _ratio(c.get("gatekeeper.announces_sent", 0), ops),
        "gatekeeper.nops_per_op": _ratio(c.get("gatekeeper.nops_sent", 0), ops),
        "ordering.compares_per_op": _ratio(compares, ops),
        "ordering.reactive_fraction":
            _ratio(c.get("ordering.reactive", 0), compares),
        "ordering.cache_hit_ratio": _ratio(
            c.get("ordering.cache_hits", 0),
            c.get("ordering.cache_hits", 0) + c.get("ordering.cache_misses", 0),
        ),
        "oracle.order.busy_us_per_op":
            spans.busy(spans.everyone, "oracle.order") * us,
        "oracle.messages_per_op": _ratio(c.get("oracle.messages", 0), ops),
        "oracle.bfs_expansions_per_decision": _ratio(
            c.get("oracle.bfs_expansions", 0), c.get("oracle.decisions", 0)
        ),
        "oracle.reach_cache_hit_ratio": _ratio(
            c.get("oracle.reach_cache_hits", 0),
            c.get("oracle.queries", 0) + c.get("oracle.decisions", 0),
        ),
        "oracle.events_collected_per_gc":
            _ratio(c.get("oracle.events_collected", 0), cycles),
        "store.commit.busy_us_per_op":
            spans.busy(spans.client, "store.commit") * us,
        "store.read.busy_us_per_op":
            spans.busy(spans.client, "store.read") * us,
        "store.reads_per_op": _ratio(spans.count(spans.client, "store.read"), ops),
        "store.abort_ratio": _ratio(
            c.get("store.aborts", 0),
            c.get("store.aborts", 0) + c.get("store.commits", 0),
        ),
        "store.durable.page_cache_hit_ratio": _ratio(
            c.get("store.page_cache_hits", 0),
            c.get("store.page_cache_hits", 0) + c.get("store.page_cache_misses", 0),
        ),
        "store.durable.evictions_per_op":
            _ratio(c.get("store.page_cache_evictions", 0), ops),
        "store.durable.file_bytes_per_edge": _ratio(
            traced["end_state"]["file_bytes"], traced["end_state"]["live_edges"]
        ),
        "store.compaction.busy_ms_per_gc":
            _ratio(spans.busy(spans.client, "store.compaction") * 1e3, cycles),
        "store.records_collected_per_gc":
            _ratio(c.get("store.records_collected", 0), cycles),
        "wire.client.codec_us_per_op":
            spans.busy(spans.client, "wire.codec") * us,
        "wire.worker.codec_us_per_op": sum(
            spans.busy([role], "wire.codec")
            for role in spans.everyone if role != "client"
        ) * us,
        "wire.bytes_per_op": _ratio(
            c.get("transport.bytes_sent", 0) + c.get("transport.bytes_received", 0),
            ops,
        ),
        "transport.request.wait_us_per_op":
            spans.self_time(spans.client, "transport.request") * us,
        "transport.send.busy_us_per_op":
            spans.busy(spans.client, "transport.send") * us,
        "transport.requests_per_op": _ratio(c.get("transport.requests", 0), ops),
        "transport.frames_per_op": _ratio(
            c.get("transport.frames_sent", 0) + c.get("transport.frames_received", 0),
            ops,
        ),
        "transport.batch_fill": _ratio(
            c.get("transport.batched_messages", 0), c.get("transport.batches_sent", 0)
        ),
        "transport.worker.peer_bytes_per_op":
            _ratio(c.get("transport.worker.bytes_sent", 0), ops),
        "shard.apply.busy_us_per_op": spans.busy(shard_roles, "shard.apply") * us,
        "shard.enqueue.busy_us_per_op":
            spans.busy(shard_roles, "shard.enqueue") * us,
        "shard.snapshot.self_us_per_op":
            spans.self_time(shard_roles, "shard.snapshot") * us,
        "shard.transactions_applied_per_op":
            _ratio(c.get("shard.transactions_applied", 0), ops),
        "shard.nops_applied_per_op": _ratio(c.get("shard.nops_applied", 0), ops),
        "shard.vertices_read_per_op": _ratio(c.get("shard.vertices_read", 0), ops),
        "worker.resident.rounds_per_query": _ratio(
            c.get("program.resident.rounds_executed", 0), queries
        ),
        "worker.resident.forwards_per_query": _ratio(
            c.get("program.resident.forwards_sent", 0), queries
        ),
        "worker.resident.entries_per_query": _ratio(
            c.get("program.resident.entries_processed", 0), queries
        ),
        "worker.idle_share": (
            1.0 - _ratio(cpu["workers"], n_workers * wall) if n_workers else 0.0
        ),
        "programs.execute.busy_us_per_op":
            spans.busy(spans.everyone, "programs.execute") * us,
        "programs.resolve_many.busy_us_per_op":
            spans.busy(spans.everyone, "programs.resolve_many") * us,
        "programs.vertices_resolved_per_op":
            _ratio(c.get("program.vertices_resolved", 0), ops),
        "programs.rounds_per_op": _ratio(c.get("program.batch_rounds", 0), ops),
        "programs.snapshots_created_per_op":
            _ratio(c.get("program.snapshots_created", 0), ops),
        "programs.dedup_hit_ratio": _ratio(
            c.get("program.dedup_hits", 0),
            c.get("program.dedup_hits", 0) + c.get("program.vertices_resolved", 0),
        ),
        "obs.spans_per_op": _ratio(c.get("trace.spans", 0), ops),
        # host-scaled on both sides: the two runs are a minute apart
        "obs.tracing_overhead_ratio": _ratio(
            fixed["throughput_ops_s"], traced["throughput_ops_s"]
        ),
        "host.client_cpu_us_per_op": cpu["client"] * us,
        "host.worker_cpu_us_per_op": cpu["workers"] * us,
        "host.oracle_cpu_us_per_op": cpu["oracle"] * us,
        "host.parallelism": _ratio(sum(cpu.values()), wall),
        "host.unattributed_share":
            _ratio(wall - spans.client_layer_self(), wall),
        "host.calibration_ms": sum(traced["calibration_ms"]) / 2.0,
        "host.cpu_count": float(traced["cpu_count"] or 0),
    }
    return {name: (values[name], PER_LAYER[name][0]) for name in PER_LAYER}
