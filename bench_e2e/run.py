#!/usr/bin/env python3
"""The repo's end-to-end benchmark: four workloads, one ledger.

    python3 bench_e2e/run.py                       # all workloads, both passes
    python3 bench_e2e/run.py --quick               # the same in about a minute
    python3 bench_e2e/run.py --repeat 3 --out a.json
    python3 bench_e2e/run.py --workload tao_read --seed 7 --seconds 18 --trace 0

Each workload runs through the public client API in fresh subprocesses
(``harness.py``): first untraced and time-bounded for the end-to-end
metrics (everything pinned to one CPU, timings scaled by a host probe: see
the README's "Load model"), then — ``--trace 1`` — a fixed op count twice,
untraced and with every layer's public functions wrapped, for the
per-layer ledger.  Every answer is checked against a reference model; a
failed or wrong op makes the command exit non-zero.

With ``--workload`` and ``--trace`` the last line of standard output is
the one JSON object ``BENCHMARK.json``'s contract asks for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import workloads as wl  # noqa: E402

# Set-ups per end-to-end run; setup_s is their median.
SETUP_RUNS = 3
QUICK_SECONDS = 1.0
CHILD_TIMEOUT_S = 170
CALIBRATION_DRIFT = 0.10


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def _spec() -> dict:
    with open(REPO / "BENCHMARK.json") as handle:
        return json.load(handle)


def _child(name: str, seed: int, seconds: float, mode: str) -> dict:
    """One harness run in a fresh interpreter, with a scratch directory of
    its own under ``bench_e2e/out`` that is removed afterwards."""
    OUT.mkdir(exist_ok=True)
    # A short name: ProcessWeaver's AF_UNIX socket paths live below it.
    run_dir = OUT / f"r{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    result_path = run_dir / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(HERE / "harness.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
        "--run-dir", str(run_dir), "--out", str(result_path),
    ]
    # Own session: on a timeout the whole group goes, forked workers too.
    process = subprocess.Popen(
        command, cwd=REPO, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        try:
            code = process.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise BenchmarkError(f"{name}/{mode} run exceeded {CHILD_TIMEOUT_S} s")
        if code != 0:
            raise BenchmarkError(f"{name}/{mode} run exited with code {code}")
        with open(result_path) as handle:
            return json.load(handle)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _drift_warning(run: dict) -> Optional[str]:
    before, after = run["calibration_ms"]
    if abs(after - before) > CALIBRATION_DRIFT * min(before, after):
        return (
            f"WARNING {run['workload']}/{run['mode']}: the host probe moved "
            f"{before:.2f} -> {after:.2f} ms during the run: the host changed "
            "speed under it"
        )
    return None


class Pass:
    """What one pass over one workload produced."""

    def __init__(self) -> None:
        self.metrics: Dict[str, ledger.Metric] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.lines: List[str] = []

    def absorb(self, run: dict) -> None:
        self.attempted += run["attempted"]
        self.failed += run["failed"] + run["wrong"]
        self.notes += run["examples"]
        warning = _drift_warning(run)
        if warning:
            self.notes.append(warning)


def end_to_end_pass(name: str, seed: int, seconds: float, setups: int) -> Pass:
    out = Pass()
    setup_times = []
    for _ in range(setups - 1):
        run = _child(name, seed, seconds, "setup")
        out.absorb(run)
        setup_times.append(run["setup_s"])
    run = _child(name, seed, seconds, "timed")
    out.absorb(run)
    setup_times.append(run["setup_s"])
    out.metrics = ledger.end_to_end(run, statistics.median(setup_times))
    read, write = run["latency"]["read"], run["latency"]["write"]
    samples = {
        "setup_s": f"median of {len(setup_times)}",
        "throughput_ops_s": (
            f"{run['ops']} ops in {run['wall_s']:.2f} s, "
            f"median of {run['n_slices']} slices"
        ),
        "read_p50_ms": _floor_note(read["n"], ledger.MIN_P50_SAMPLES),
        "read_p99_ms": _floor_note(read["n"], ledger.MIN_P99_SAMPLES)
        + ", whole window",
        "write_p50_ms": _floor_note(write["n"], ledger.MIN_P50_SAMPLES),
        "write_p99_ms": _floor_note(write["n"], ledger.MIN_P99_SAMPLES)
        + ", whole window",
        "cpu_ms_per_op": "client + workers + oracle, median of slices",
        "peak_rss_mb": " + ".join(
            f"{role} {mb:.0f}" for role, mb in run["rss_mb"].items()
        ),
    }
    cpu = run["pinned_cpu"]
    out.lines.append(
        f"  end-to-end, untraced, {seconds:g} s window, "
        + ("unpinned" if cpu is None else f"all on CPU {cpu}")
        + "; times scaled to the reference host"
    )
    out.lines.append(
        f"    host probe at {run['host_factor']:.3f} x the reference "
        f"({run['probe_ref_ms']:g} ms); unscaled: "
        f"{run['throughput_raw_ops_s']:.1f} ops/s, read p50 "
        f"{read['p50_raw_ms']:.4f} ms, write p50 {write['p50_raw_ms']:.4f} ms, "
        f"last set-up {run['setup_raw_s']:.3f} s"
    )
    for metric, (value, unit) in out.metrics.items():
        gate = "" if metric in ledger.END_TO_END else "  (not gated)"
        out.lines.append(
            f"    {metric:<22}{value:>12.4f} {unit:<5} {samples[metric]}{gate}"
        )
    return out


def _floor_note(n: int, floor: int) -> str:
    return f"n={n}" + ("" if n >= floor else f"  BELOW the {floor}-sample floor")


def per_layer_pass(name: str, seed: int, seconds: float) -> Pass:
    out = Pass()
    fixed = _child(name, seed, seconds, "fixed")
    traced = _child(name, seed, seconds, "traced")
    out.absorb(fixed)
    out.absorb(traced)
    out.metrics = ledger.per_layer(traced, fixed)
    trace_path = OUT / f"trace-{name}.json"
    with open(trace_path, "w") as handle:
        json.dump(
            {
                "workload": name, "seed": seed, "ops": traced["ops"],
                "wall_s": traced["wall_s"],
                "per_layer": {k: v for k, (v, _) in out.metrics.items()},
                "spans_s": traced["spans"],
                "waterfalls": traced["waterfalls"],
            },
            handle,
        )
    out.lines.append(
        f"  per-layer, traced, {traced['ops']} ops "
        f"(spans and waterfalls in {trace_path.relative_to(REPO)})"
    )
    for metric, (value, unit) in out.metrics.items():
        out.lines.append(f"    {metric:<40}{value:>14.4f} {unit}")
    return out


def _report(header: str, passes: List[Pass]) -> None:
    print(header)
    for done in passes:
        for line in done.lines:
            print(line)
        print(
            f"  ops attempted {done.attempted}, failed or wrong {done.failed}"
        )
        for note in done.notes:
            print(f"  ! {note}")
    sys.stdout.flush()


def _quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4f}  [q1 {q1:.4f}, q3 {q3:.4f}]"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="window length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end pass only; 1: per-layer pass only "
                             "(default: both)")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS:g} s windows and one set-up per run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the workload list K times, interleaved")
    parser.add_argument("--out", help="also write every value to this JSON file")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench_e2e: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    spec = _spec()
    seconds = args.seconds if args.seconds is not None else (
        QUICK_SECONDS if args.quick else float(spec["run_seconds"])
    )
    setups = 1 if args.quick else SETUP_RUNS
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    do_e2e = args.trace in (None, 0)
    do_layers = args.trace in (None, 1)

    e2e_values: Dict[str, Dict[str, List[float]]] = {n: {} for n in names}
    layer_values: Dict[str, Dict[str, float]] = {}
    last: Dict[str, Pass] = {}
    attempted = failed = 0
    try:
        for repeat in range(args.repeat):
            for name in names:
                passes = []
                if do_e2e:
                    done = end_to_end_pass(name, args.seed, seconds, setups)
                    for metric, (value, _) in done.metrics.items():
                        e2e_values[name].setdefault(metric, []).append(value)
                    passes.append(done)
                # The ledger's counts repeat exactly; one traced pass is enough.
                if do_layers and repeat == 0:
                    done = per_layer_pass(name, args.seed, seconds)
                    layer_values[name] = {k: v for k, (v, _) in done.metrics.items()}
                    passes.append(done)
                for done in passes:
                    attempted += done.attempted
                    failed += done.failed
                    last[name] = done
                _report(
                    f"== {name}  seed {args.seed}  run {repeat + 1}/{args.repeat}"
                    "  (closed loop, 1 client) ==", passes,
                )
    except BenchmarkError as exc:
        print(f"bench_e2e: {exc}", file=sys.stderr)
        return 1

    if args.repeat > 1 and do_e2e:
        print(f"== median and quartiles over {args.repeat} runs ==")
        for name in names:
            for metric, values in e2e_values[name].items():
                print(f"  {name:<18}{metric:<22}{_quartiles(values)}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {
                    "seed": args.seed, "seconds": seconds,
                    "cpu_count": os.cpu_count(),
                    "end_to_end": e2e_values, "per_layer": layer_values,
                    "attempted": attempted, "failed": failed,
                },
                handle, indent=1,
            )
    if args.workload and args.trace is not None:
        done = last[args.workload]
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                metric: {"value": value, "unit": unit}
                for metric, (value, unit) in done.metrics.items()
                if metric not in ledger.UNGATED
            },
        }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
