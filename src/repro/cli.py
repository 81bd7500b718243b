"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — version and deployment defaults;
* ``demo`` — a one-minute tour of the API (transactions, traversals,
  historical queries, failover);
* ``bench --figure fig7`` — regenerate one of the paper's figures (or
  ``all``) and print its table;
* ``tao --ops N`` — replay the Table 1 workload against a live
  deployment and report the protocol statistics;
* ``stats`` — run a short mixed workload and report the ordering
  fast-path counters (memo hits, pruned BFS work, scheduler savings);
* ``chaos --seed N`` — a seeded fault-injection run (message drops,
  duplicates, delays, a partition, server crashes) checked end-to-end
  for strict serializability.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .bench.report import format_table

FIGURES = (
    "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
)


def _cmd_info(args) -> int:
    from .db.config import WeaverConfig

    config = WeaverConfig()
    rows = [
        ("version", __version__),
        ("paper", "Weaver (Dubey et al., PVLDB 9(11), 2016)"),
        ("default gatekeepers", config.num_gatekeepers),
        ("default shards", config.num_shards),
        ("default announce cadence", config.announce_every),
        ("oracle chain length", config.oracle_chain_length),
    ]
    print(format_table("repro: Weaver reproduction", ["key", "value"], rows))
    return 0


def _cmd_demo(args) -> int:
    from .db import Weaver, WeaverClient, WeaverConfig

    db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=2))
    client = WeaverClient(db)
    with client.transaction() as tx:
        for name in ("alice", "bob", "carol"):
            tx.create_vertex(name)
        tx.create_edge("alice", "bob", "ab")
        tx.create_edge("bob", "carol", "bc")
    print("graph loaded:", client.traverse("alice"))
    print("alice -> carol:", client.find_path("alice", "carol"))
    point = db.checkpoint()
    client.delete_edge("bob", "bc")
    print("after unfollow:", client.find_path("alice", "carol"))
    print("at the checkpoint:",
          client.find_path("alice", "carol", at=point))
    db.fail_shard(0)
    print("after shard failover:", client.traverse("alice"))
    print("ordering decisions:", db.ordering_stats())
    return 0


def _cmd_tao(args) -> int:
    from .db import Weaver, WeaverClient, WeaverConfig
    from .workloads import graphs
    from .workloads.runner import run_tao
    from .workloads.tao import TaoWorkload

    db = Weaver(
        WeaverConfig(
            num_gatekeepers=3, num_shards=4, announce_every=args.announce
        )
    )
    client = WeaverClient(db)
    edges = graphs.social_graph(args.vertices, 5, seed=args.seed)
    handles = graphs.load_into_weaver(client, edges)
    pool = [(k.split("->", 1)[0], h) for k, h in handles.items()]
    workload = TaoWorkload(
        graphs.vertices_of(edges),
        edge_pool=pool,
        read_fraction=args.read_fraction,
        seed=args.seed,
    )
    report = run_tao(client, workload, args.ops)
    rows = [
        ("operations", report.operations),
        ("failures", report.failures),
        ("reactive fraction", f"{report.reactive_fraction:.5f}"),
    ] + sorted(report.counts.items())
    print(format_table("TAO workload replay", ["metric", "value"], rows))
    return 0


def _cmd_stats(args) -> int:
    """Short mixed workload, then the ordering fast-path counters."""
    from .db import Weaver, WeaverClient, WeaverConfig
    from .workloads import graphs
    from .workloads.runner import run_tao
    from .workloads.tao import TaoWorkload

    # A sparse announce cadence leaves concurrent stamps for the oracle
    # to refine, so the reactive-path counters move too.
    db = Weaver(
        WeaverConfig(
            num_gatekeepers=3, num_shards=4, announce_every=args.announce
        )
    )
    client = WeaverClient(db)
    edges = graphs.social_graph(args.vertices, 5, seed=args.seed)
    handles = graphs.load_into_weaver(client, edges)
    pool = [(k.split("->", 1)[0], h) for k, h in handles.items()]
    workload = TaoWorkload(
        graphs.vertices_of(edges),
        edge_pool=pool,
        read_fraction=0.9,
        seed=args.seed,
    )
    run_tao(client, workload, args.ops)
    for start, _ in edges[:: max(1, len(edges) // 8)]:
        client.traverse(start)

    if getattr(args, "json", False):
        import json

        print(json.dumps(db.metrics.snapshot(), indent=2, sort_keys=True))
        return 0

    ordering = db.ordering_stats()
    resolved = sum(ordering.values()) or 1
    fastpath = db.fastpath_stats()
    rows = (
        [(k, v) for k, v in sorted(ordering.items())]
        + [("reactive fraction", f"{ordering['reactive'] / resolved:.5f}")]
        + [(k, v) for k, v in sorted(fastpath.items())]
    )
    print(format_table(
        "Ordering fast-path counters", ["counter", "value"], rows
    ))
    return 0


def _cmd_simulate(args) -> int:
    """Run the event-driven deployment with a failure drill."""
    from .db import operations as ops
    from .db.config import WeaverConfig
    from .programs import GetNode
    from .sim.clock import MSEC, USEC
    from .sim.deployment import SimulatedWeaver

    sw = SimulatedWeaver(
        WeaverConfig(num_gatekeepers=args.gatekeepers, num_shards=args.shards),
        tau=args.tau * USEC,
        nop_period=200 * USEC,
        heartbeat_period=5 * MSEC,
    )
    for i in range(args.writes):
        sw.submit_transaction([ops.CreateVertex(f"v{i}")])
        sw.run(300 * USEC)
    sw.run(5 * MSEC)
    print(f"[t={sw.simulator.now * 1000:.1f} ms] committed "
          f"{sw.committed} transactions")
    sw.crash_shard(0)
    print(f"[t={sw.simulator.now * 1000:.1f} ms] shard0 crashed "
          f"(silently — heartbeats just stop)")
    sw.run(60 * MSEC)
    print(f"[t={sw.simulator.now * 1000:.1f} ms] detector recovered it; "
          f"epoch is now {sw.manager.epoch}")
    box = {}
    sw.submit_program(
        GetNode(), "v0", None, callback=lambda r: box.update(r=r)
    )
    sw.run_until_quiet()
    found = bool(box.get("r") and box["r"].results)
    print(f"[t={sw.simulator.now * 1000:.1f} ms] post-recovery read of "
          f"v0: {'ok' if found else 'MISSING'}")
    print(
        f"messages: {sw.announce_messages()} announces, "
        f"{sw.nop_messages()} heartbeats, "
        f"{sw.oracle_messages()} oracle"
    )
    return 0 if found else 1


def _cmd_chaos(args) -> int:
    """Seeded fault-injection run with the strict-serializability check."""
    from .sim.clock import MSEC
    from .workloads.chaos import run_chaos

    report = run_chaos(
        seed=args.seed,
        duration=args.duration * MSEC,
        num_vertices=args.vertices,
        skew=args.skew,
    )
    fault_rows = sorted(report.faults.items()) or [("(none fired)", 0)]
    rows = [
        ("seed", report.seed),
        ("horizon (ms)", round(report.duration * 1000, 1)),
        ("committed", report.committed),
        ("aborted", report.aborted),
        ("reads completed", report.reads_completed),
        ("reads lost to crashes", report.reads_lost),
        ("recoveries", report.recoveries),
        ("stragglers dropped", report.stragglers_dropped),
        ("duplicates discarded", report.duplicates_discarded),
    ] + [(f"fault: {kind}", count) for kind, count in fault_rows] + [
        ("history digest", report.digest[:16]),
        ("violations", len(report.violations)),
    ]
    print(format_table(
        "Chaos run (seeded, reproducible)", ["metric", "value"], rows
    ))
    if report.violations:
        for violation in report.violations:
            print(f"  VIOLATION {violation}")
        return 1
    print("strict serializability: OK "
          "(re-run with the same --seed for the identical history)")
    return 0


def _cmd_soak(args) -> int:
    """Long-running chaos soak with the referee always on."""
    from .sim.clock import MSEC
    from .workloads.chaos import run_soak

    report = run_soak(
        seed=args.seed,
        transport=args.transport,
        wall_seconds=args.duration if args.chunks is None else None,
        chunks=args.chunks,
        chunk_horizon=args.chunk * MSEC,
        num_vertices=args.vertices,
        skew=args.skew,
        store=args.store,
        store_cache_bytes=args.store_cache,
    )
    rows = [
        ("seed", report.seed),
        ("transport", report.transport),
        ("store", report.store),
        ("chunks", report.chunks),
        ("wall time (s)", round(report.wall_seconds, 2)),
        ("committed", report.committed),
        ("aborted", report.aborted),
        ("reads completed", report.reads_completed),
        ("throughput (tx/s)", round(report.throughput, 1)),
        ("recoveries", report.recoveries),
        ("watermarks", report.watermarks),
        ("window peak", report.window_peak),
        ("window final", report.window_final),
        ("records pruned", report.pruned),
        # The price of leaving the referee on (timed around its sink).
        ("referee events", report.referee_events),
        ("referee time (s)", round(report.referee_seconds, 4)),
        ("referee events/s", round(
            report.referee_events / report.referee_seconds
            if report.referee_seconds else 0.0
        )),
        ("history digest", report.digest[:16]),
        ("violations", len(report.violations)),
    ]
    print(format_table(
        "Soak run (referee attached)", ["metric", "value"], rows
    ))
    for violation in report.violations:
        print(f"  VIOLATION {violation}")
    if not report.ok:
        return 1
    print("strict serializability: OK (checked online, on every prefix)")
    return 0


def _cmd_geo(args) -> int:
    """Geo sweep: deadline fast path vs oracle-only baseline per tau."""
    import json
    import pathlib

    from .sim.clock import MSEC, USEC
    from .workloads.geo import geo_sweep

    taus = [t * USEC for t in args.taus] if args.taus else None
    result = geo_sweep(
        seed=args.seed,
        taus=taus,
        num_regions=args.regions,
        duration=args.duration * MSEC,
    )
    rows = []
    for point in result["points"]:
        fast, base = point["fastpath"], point["baseline"]
        rows.append((
            f"{point['tau'] * 1e6:g}",
            base["oracle_calls"],
            fast["oracle_calls"],
            f"{point['oracle_reduction']:.1f}x",
            fast["deadline_fastpath"],
            round(base["tx_p99"] * 1000, 3),
            round(fast["tx_p99"] * 1000, 3),
        ))
    print(format_table(
        f"Geo sweep: {args.regions} regions, seed {result['seed']} "
        "(oracle calls, baseline vs deadline fast path)",
        ["tau (us)", "oracle base", "oracle fast", "reduction",
         "fastpath wins", "p99 base (ms)", "p99 fast (ms)"],
        rows,
    ))
    violations = sum(
        point[mode]["violations"]
        for point in result["points"]
        for mode in ("fastpath", "baseline")
    )
    if args.output:
        out = pathlib.Path(args.output)
        out.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {out}")
    if violations or not result["all_consistent"]:
        print(f"  VIOLATION: {violations} referee violations; "
              f"all_consistent={result['all_consistent']}")
        return 1
    print("strict serializability: OK on every point, both modes")
    return 0


def _cmd_trace(args) -> int:
    """Deterministically re-create a chaos run and print one trace.

    Chaos runs are bit-for-bit reproducible from the seed, so the span
    stream of any past run can be regenerated on demand — no trace
    storage needed.  Without a trace id, ``--list`` shows what's in the
    ring buffer.
    """
    from .obs import assemble_chain
    from .sim.clock import MSEC
    from .workloads.chaos import run_chaos

    report = run_chaos(seed=args.seed, duration=args.duration * MSEC)
    tracer = report.tracer
    if args.list or args.trace_id is None:
        ids = tracer.trace_ids()
        if args.kind:
            # Filter on the assembled chain, not the raw spans, so kinds
            # joined in by id-matching (oracle.decide) are findable too.
            ids = [
                tid for tid in ids
                if any(
                    s.kind == args.kind
                    for s in assemble_chain(tracer, tid)
                )
            ]
        print(f"# seed={args.seed} traces buffered: {len(ids)}")
        for tid in ids:
            kinds = [s.kind for s in tracer.spans(trace_id=tid)]
            print(f"  {tid}: {' -> '.join(kinds)}")
        return 0
    chain = assemble_chain(tracer, args.trace_id)
    if not chain:
        print(f"trace {args.trace_id} not found (try --list)")
        return 1
    print(f"# trace {args.trace_id} (seed={args.seed}): {len(chain)} spans")
    for span in chain:
        attrs = ", ".join(
            f"{k}={v}" for k, v in span.attrs if k not in ("writes", "reads")
        )
        print(
            f"  t={span.at * 1000:9.4f}ms  {span.kind:<18} "
            f"{span.node:<8} {attrs}"
        )
    return 0


def _cmd_bench(args) -> int:
    if args.transport == "process":
        return _bench_process_transport(args)
    from .bench import harness

    wanted = FIGURES if args.figure == "all" else (args.figure,)
    for figure in wanted:
        _run_figure(harness, figure)
    return 0


def _bench_process_transport(args) -> int:
    """Fig 13-style shard scaling over the real multiprocess transport,
    twin-checked against the deterministic simulator."""
    from .bench.transport_bench import scaling_experiment

    result = scaling_experiment(
        num_vertices=args.vertices, num_queries=args.queries
    )
    print(format_table(
        "Process transport: traversal throughput vs worker count",
        ["workers", "queries/s", "pipelined", "bytes sent"],
        [
            (
                p["shards"],
                round(p["throughput_qps"], 1),
                p["transport"]["requests_pipelined"],
                p["transport"]["bytes_sent"],
            )
            for p in result["points"]
        ],
    ))
    last = result["shard_counts"][-1]
    print(f"cpu_count: {result['cpu_count']} "
          f"(scaling needs real parallel cores)")
    print(f"scaling 1→{last}: {result['scaling']:.2f}x")
    print(f"results_equal vs simulated twin: {result['results_equal']}")
    return 0 if result["results_equal"] else 1


def _ms(histogram, *quantiles):
    """A latency histogram's quantiles in milliseconds, for a table row."""
    return [round(histogram.quantile(q) * 1000, 2) for q in quantiles]


def _run_figure(harness, figure: str) -> None:
    if figure == "fig7":
        result = harness.experiment_fig7()
        print(format_table(
            "Fig 7: block query latency",
            ["block", "txs", "CoinGraph (s)", "BC.info (s)", "speedup"],
            [(h, n, round(cg, 4), round(bc, 3), round(sp, 1))
             for h, n, cg, bc, sp in result.rows()],
        ))
    elif figure == "fig8":
        result = harness.experiment_fig8()
        print(format_table(
            "Fig 8: block render throughput",
            ["block", "queries/s", "vertex reads/s"],
            [(b, round(t, 1), round(r)) for b, t, r in result.rows()],
        ))
    elif figure == "fig9":
        for fraction, cw, ct in ((0.998, 50, 60), (0.75, 45, 50)):
            run = harness.experiment_fig9(
                fraction, cw, ct, total_ops=2000,
                num_vertices=200, functional_ops=200,
            )
            print(format_table(
                f"Fig 9: throughput at {fraction:.1%} reads",
                ["system", "tx/s", "p50 (ms)", "p99 (ms)"],
                [("Weaver", round(run.weaver_throughput),
                  *_ms(run.weaver_latencies, 0.5, 0.99)),
                 ("Titan", round(run.titan_throughput),
                  *_ms(run.titan_latencies, 0.5, 0.99))],
            ))
            print(f"speedup: {run.speedup:.1f}x; "
                  f"reactive: {run.reactive_fraction:.5f}")
    elif figure == "fig10":
        runs = harness.experiment_fig10(total_ops=400)
        rows = []
        for fraction, run in sorted(runs.items(), reverse=True):
            for system, latencies in (
                ("Weaver", run.weaver_latencies),
                ("Titan", run.titan_latencies),
            ):
                rows.append((
                    f"{system} ({fraction:.1%} reads)",
                    *_ms(latencies, 0.5, 0.99),
                ))
        print(format_table(
            "Fig 10: transaction latency",
            ["system (workload)", "p50 (ms)", "p99 (ms)"],
            rows,
        ))
    elif figure == "fig11":
        result = harness.experiment_fig11()
        print(format_table(
            "Fig 11: traversal latency",
            ["system", "mean (ms)"],
            [("Weaver", round(result.weaver.mean * 1000, 3)),
             ("GraphLab async",
              round(result.graphlab_async.mean * 1000, 3)),
             ("GraphLab sync",
              round(result.graphlab_sync.mean * 1000, 3))],
        ))
    elif figure == "fig12":
        result = harness.experiment_fig12(ops=2000)
        print(format_table(
            "Fig 12: gatekeeper scaling (simulated twin)",
            ["gatekeepers", "tx/s", "completed", "failed"],
            [(n, round(t), run.completed, run.failed)
             for (n, t), run in zip(result.rows(), result.runs)],
        ))
    elif figure == "fig13":
        result = harness.experiment_fig13(ops=1000)
        print(format_table(
            "Fig 13: shard scaling",
            ["shards", "tx/s"],
            [(n, round(t)) for n, t in result.rows()],
        ))
    elif figure == "fig14":
        result = harness.experiment_fig14()
        print(format_table(
            "Fig 14: coordination overhead vs tau",
            ["tau (s)", "announce/query", "oracle/query"],
            [(f"{tau:g}", round(a, 4), round(o, 4))
             for tau, a, o in result.rows()],
        ))
    else:
        raise ValueError(f"unknown figure {figure!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Weaver (VLDB 2016) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="version and defaults").set_defaults(
        func=_cmd_info
    )
    sub.add_parser("demo", help="a quick API tour").set_defaults(
        func=_cmd_demo
    )

    tao = sub.add_parser("tao", help="replay the Table 1 workload")
    tao.add_argument("--ops", type=int, default=500)
    tao.add_argument("--vertices", type=int, default=200)
    tao.add_argument("--read-fraction", type=float, default=0.998)
    tao.add_argument("--announce", type=int, default=4)
    tao.add_argument("--seed", type=int, default=42)
    tao.set_defaults(func=_cmd_tao)

    stats = sub.add_parser(
        "stats", help="ordering fast-path counters after a mixed workload"
    )
    stats.add_argument("--ops", type=int, default=400)
    stats.add_argument("--vertices", type=int, default=150)
    stats.add_argument("--announce", type=int, default=40)
    stats.add_argument("--seed", type=int, default=42)
    stats.add_argument(
        "--json", action="store_true",
        help="emit the full metrics-registry snapshot as JSON",
    )
    stats.set_defaults(func=_cmd_stats)

    trace = sub.add_parser(
        "trace",
        help="re-run a seeded chaos run and print one trace's span chain",
    )
    trace.add_argument("trace_id", type=int, nargs="?", default=None,
                       help="trace id to reconstruct (omit with --list)")
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--duration", type=float, default=20,
                       help="chaos-phase horizon in milliseconds")
    trace.add_argument("--list", action="store_true",
                       help="list buffered trace ids instead")
    trace.add_argument("--kind", default=None,
                       help="with --list, only traces containing this "
                            "span kind")
    trace.set_defaults(func=_cmd_trace)

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault injection + strict-serializability check",
    )
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument("--duration", type=float, default=60,
                       help="chaos-phase horizon in milliseconds")
    chaos.add_argument("--vertices", type=int, default=12)
    chaos.add_argument("--skew", type=float, default=0.8,
                       help="Zipf skew of write/read targets")
    chaos.set_defaults(func=_cmd_chaos)

    soak = sub.add_parser(
        "soak",
        help="long-running chaos soak, referee always on",
    )
    soak.add_argument("--seed", type=int, default=1)
    soak.add_argument("--duration", type=float, default=8.0,
                      help="wall-clock run time in seconds")
    soak.add_argument("--chunks", type=int, default=None,
                      help="run exactly N chunks instead of --duration")
    soak.add_argument("--transport", choices=("sim", "process"),
                      default="sim")
    soak.add_argument("--store", choices=("memory", "sqlite"),
                      default="memory",
                      help="backing store: in-memory version chains or "
                           "the durable SQLite/WAL backend (temporary "
                           "database, removed after the run)")
    soak.add_argument("--store-cache", type=int, default=None,
                      help="sqlite page-cache budget in bytes (small "
                           "values soak the larger-than-RAM paths)")
    soak.add_argument("--chunk", type=float, default=30,
                      help="sim chunk horizon in milliseconds")
    soak.add_argument("--vertices", type=int, default=12)
    soak.add_argument("--skew", type=float, default=0.8,
                      help="Zipf skew of write/read targets")
    soak.set_defaults(func=_cmd_soak)

    geo = sub.add_parser(
        "geo",
        help="geo-distributed sweep: deadline fast path vs oracle-only",
    )
    geo.add_argument("--seed", type=int, default=7)
    geo.add_argument("--regions", type=int, default=3,
                     help="regions = gatekeepers = shards (2 or 3)")
    geo.add_argument("--duration", type=float, default=40.0,
                     help="simulated horizon per run, milliseconds")
    geo.add_argument("--taus", type=float, nargs="*", default=None,
                     metavar="USEC",
                     help="tau values in microseconds "
                          "(default: 50 200 800)")
    geo.add_argument("--output", default=None,
                     help="write the JSON-ready sweep here "
                          "(e.g. BENCH_geo.json)")
    geo.set_defaults(func=_cmd_geo)

    bench = sub.add_parser("bench", help="regenerate a paper figure")
    bench.add_argument(
        "--figure", choices=FIGURES + ("all",), default="fig7"
    )
    bench.add_argument(
        "--transport", choices=("sim", "process"), default="sim",
        help="process: shard-scaling over real worker processes, "
             "twin-checked against the simulator (ignores --figure)",
    )
    bench.add_argument("--vertices", type=int, default=200,
                       help="graph size for --transport=process")
    bench.add_argument("--queries", type=int, default=20,
                       help="timed traversals for --transport=process")
    bench.set_defaults(func=_cmd_bench)

    simulate = sub.add_parser(
        "simulate",
        help="event-driven deployment with a live failure drill",
    )
    simulate.add_argument("--gatekeepers", type=int, default=2)
    simulate.add_argument("--shards", type=int, default=2)
    simulate.add_argument("--tau", type=float, default=200,
                          help="announce period in microseconds")
    simulate.add_argument("--writes", type=int, default=20)
    simulate.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `repro info | head`).
        import os

        try:
            os.close(sys.stdout.fileno())
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
