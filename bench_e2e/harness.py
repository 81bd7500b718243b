"""One measured run of one workload, in this process.

``run.py`` starts this file as a fresh subprocess for every run (back-to-
back workloads in one interpreter drifted throughput by tens of percent),
once per mode:

* ``setup``  — build the deployment, load the graph, warm up, tear down;
* ``timed``  — the same, then drive ops for ``--seconds`` of wall clock
  with nothing wrapped: the end-to-end numbers;
* ``fixed``  — untraced, but a fixed op count, as the base for the traced
  run's overhead ratio;
* ``traced`` — the same fixed op count with every layer point wrapped.

Load model: closed loop, one client, one thread.  The client API is
synchronous and the gatekeeper bank and store live in the client process,
so the caller waits for each reply before sending the next op.  The client
and every worker it forks are pinned to one CPU (``pin_to_one_cpu``).

Host speed: the shared VM this runs on has phases, minutes long, in which
identical code runs 20-50% slower.  A fixed pure-Python probe
(``host_probe_ms``) is timed before and after set-up and at every slice
boundary of the window, and a run's set-up time, throughput, CPU per op
and latencies are scaled to what they would have been on a host where the
probe takes ``PROBE_REF_MS``; the unscaled values are kept beside them
(``*_raw``).  The spans of a traced run are not scaled.

The result (a dict, see ``run``) goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional

import tracing
import workloads as wl

MODES = ("setup", "timed", "fixed", "traced")

# The time-bounded window is cut into this many slices, with a host-speed
# probe between them.  Throughput, CPU per op and the p50s are computed per
# slice, scaled by the probes on either side of it, and the median slice is
# reported: the scaling follows the host's slow phases, and the median
# ignores the odd slice where a stall fell between two probes.
WINDOW_SLICES = 40
MIN_SLICE_S = 0.4       # a shorter window (``--quick``) gets fewer slices

# The host-speed probe: ``PROBE_SAMPLES`` runs of a fixed loop at each slice
# boundary (about 20 ms in a 450 ms slice).  ``PROBE_REF_MS`` is what one run
# takes on the build host (2.1 GHz Xeon vCPU, CPython 3) in a quiet phase, so
# scaled and raw values agree there.
PROBE_SAMPLES = 4
PROBE_REF_MS = 4.5

# A fixed-count run that takes longer than this many times its nominal
# seconds is cut short (and then reports the ops it did complete).
FIXED_DEADLINE_FACTOR = 6

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def fixed_ops(workload: wl.Workload, seconds: float) -> int:
    """Op count of the fixed/traced runs: sized so the traced run takes
    about ``seconds`` on the reference host, and identical between runs
    so count-type ledger entries repeat exactly."""
    return max(50, int(workload.max_ops_per_s * seconds) // 5)


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process, and so every worker forked from it, to the highest
    CPU it may run on; returns that CPU, or None where affinity cannot be set.

    One closed-loop client keeps exactly one process runnable at a time
    (``host.parallelism`` was 1.0-1.2 unpinned), so a second core adds no work
    done, only a cross-CPU wake-up per message.  On a virtual machine that
    wake-up is an inter-processor interrupt to a halted vCPU, whose cost
    is the hypervisor's and moves by tens of percent from minute to
    minute: pinned, ``tao_read`` ran a third faster and its run-to-run
    spread fell from 24% to 4-9% (README, "Steadiness").
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def host_probe_ms(samples: int = PROBE_SAMPLES) -> List[float]:
    """Times of ``samples`` runs of a fixed pure-Python loop (arithmetic,
    tuple allocation, dict stores): it moves with the host, not with the
    code under test.  Runs of three of the workloads and this loop slowed
    together, within 5-10%, through phases that slowed both by 20-50%
    (README, "Steadiness")."""
    clock = time.perf_counter
    out = []
    for _ in range(samples):
        start = clock()
        total = 0
        table = {}
        for i in range(40_000):
            total += i * i
            table[i & 1023] = (i, total)
        out.append((clock() - start) * 1e3)
    return out


def host_factor(probes: List[float]) -> float:
    """How much slower than the reference host the probes say this one is."""
    return statistics.median(probes) / PROBE_REF_MS


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK   # utime + stime


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def percentile(ordered: List[float], q: float) -> float:
    """Nearest rank on an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _class_summary(slices: List[dict], factors: List[float], key: str) -> dict:
    """Latency of one op class.  The p50 is computed per slice, scaled by
    the slice's host factor, and the median over the slices taken, which
    one slow or mis-probed slice cannot drag; a slice holds too few samples
    for a p99, so that is taken over all samples of the window, each
    scaled by its slice's factor.  ``*_raw`` are the same, unscaled."""
    kept = [
        (sorted(piece[key]), f) for piece, f in zip(slices, factors) if piece[key]
    ]
    if not kept:
        return {"n": 0, "p50_ms": 0.0, "p99_ms": 0.0,
                "p50_raw_ms": 0.0, "p99_raw_ms": 0.0}
    pooled = sorted(x for samples, _ in kept for x in samples)
    scaled = sorted(x / f for samples, f in kept for x in samples)
    return {
        "n": len(pooled),
        "p50_ms": statistics.median(percentile(s, 0.50) / f for s, f in kept) * 1e3,
        "p99_ms": percentile(scaled, 0.99) * 1e3,
        "p50_raw_ms": statistics.median(percentile(s, 0.50) for s, _ in kept) * 1e3,
        "p99_raw_ms": percentile(pooled, 0.99) * 1e3,
    }


def summarize(window: dict) -> dict:
    """The window's numbers: per slice, scaled to the reference host by the
    probes on either side of the slice, then the median over the slices."""
    slices = [piece for piece in window["slices"] if piece["ops"]]
    probes = [window["probe_begin"]] + [piece["probe_ms"] for piece in slices]
    factors = [
        host_factor(probes[k] + probes[k + 1]) for k in range(len(slices))
    ]
    cpu_total = {
        role: sum(piece["cpu_s"][role] for piece in slices)
        for role in ("client", "workers", "oracle")
    }
    rates = [piece["ops"] / piece["wall_s"] for piece in slices]
    cpu_ms = [
        sum(piece["cpu_s"].values()) * 1e3 / piece["ops"] for piece in slices
    ]
    return {
        "ops": window["ops"],
        "wall_s": window["wall_s"],
        "gc_cycles": window["gc_cycles"],
        "n_slices": len(slices),
        "host_factor": statistics.median(factors),
        "probe_ref_ms": PROBE_REF_MS,
        "throughput_ops_s": statistics.median(
            rate * f for rate, f in zip(rates, factors)
        ),
        "throughput_raw_ops_s": statistics.median(rates),
        "cpu_ms_per_op": statistics.median(c / f for c, f in zip(cpu_ms, factors)),
        "cpu_s": cpu_total,
        "latency": {
            "read": _class_summary(slices, factors, "reads"),
            "write": _class_summary(slices, factors, "writes"),
        },
    }


class Deployment:
    """The program under test, reached only through its client API."""

    def __init__(self, workload: wl.Workload, run_dir: str):
        from repro.db.client import WeaverClient
        from repro.db.config import WeaverConfig

        config = dict(workload.config)
        self.store_path: Optional[str] = None
        if config.get("store_backend") == "sqlite":
            self.store_path = os.path.join(run_dir, "store.sqlite")
            config["store_path"] = self.store_path
        if workload.deployment == "process":
            from repro.cluster.process import ProcessWeaver as factory
        else:
            from repro.db.database import Weaver as factory
        self.db = factory(WeaverConfig(**config))
        self.client = WeaverClient(self.db)
        expected = config["num_shards"] + 1 if workload.deployment == "process" else 0
        self.pids = tracing.worker_pids(run_dir, expected) if expected else {}
        self._closed = False

    def dispatch(self) -> Dict[str, Callable]:
        client = self.client

        def incr(v, _a, _b):
            def body(tx):
                n = tx.get_vertex(v).get("n", 0) + 1
                tx.set_property(v, "n", n)
                return n
            return client.transact(body)

        return {
            "get_edges": lambda v, a, b: client.get_edges(v),
            "count_edges": lambda v, a, b: client.count_edges(v),
            "get_node": lambda v, a, b: client.get_node(v),
            "create_edge": lambda v, a, b: client.create_edge(v, a, b),
            "delete_edge": lambda v, a, b: client.delete_edge(v, a),
            "incr": incr,
            "traverse": lambda v, a, b: client.traverse(
                v, max_depth=wl.TRAVERSE_DEPTH
            ),
        }

    def load(self, transactions) -> None:
        for writes in transactions:
            def body(tx, writes=writes):
                for write in writes:
                    if write[0] == "create_vertex":
                        tx.create_vertex(write[1])
                    else:
                        tx.create_edge(write[1], write[2], write[3])
            self.client.transact(body)

    def cpu_seconds(self) -> Dict[str, float]:
        out = {"client": time.process_time(), "workers": 0.0, "oracle": 0.0}
        for role, pid in self.pids.items():
            key = "oracle" if role == "oracle" else "workers"
            out[key] += _proc_cpu_s(pid)
        return out

    def peak_rss_mb(self) -> Dict[str, float]:
        out = {
            "client": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        }
        for role, pid in self.pids.items():
            out[role] = _proc_peak_rss_mb(pid)
        return out

    def file_bytes(self) -> int:
        if self.store_path is None:
            return 0
        return sum(
            os.path.getsize(path)
            for path in (self.store_path, self.store_path + "-wal")
            if os.path.exists(path)
        )

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            if hasattr(self.db, "close"):
                self.db.close()


class Tally:
    """Attempted / failed / wrong, with the first few mismatches kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0       # raised, refused
        self.wrong = 0        # answered, but not what the model says
        self.examples: List[str] = []

    def note(self, what: str) -> None:
        if len(self.examples) < 5:
            self.examples.append(what)

    def check(self, label: str, observed, expected) -> None:
        self.attempted += 1
        if observed != expected:
            self.wrong += 1
            self.note(f"{label}: got {observed!r:.120}, want {expected!r:.120}")


def drive(
    deployment: Deployment,
    ops: List[wl.Op],
    first: int,
    stop: int,
    tally: Tally,
    seconds: Optional[float] = None,
    slices: int = 1,
    gc_every: int = 0,
    recorder: Optional[tracing.Recorder] = None,
    probe: bool = False,
) -> dict:
    """Run ``ops[first:stop]`` in order, or as many as fit in ``seconds``.

    Each op is timed from before the call to after the reply; the answer
    is checked against the model after the second stamp, so checking is
    inside throughput but outside latency.  ``collect_garbage()`` runs
    every ``gc_every`` ops inside the stamps of the op that follows it:
    a client that shares the deployment feels the pause as that op's
    latency.

    With ``slices`` > 1 the window is cut into that many equal stretches
    of wall clock, each closed at the first op boundary past its end, and
    the ops, latencies and CPU seconds of each are returned separately.
    With ``probe`` the host probe runs before the first slice and after
    each one, inside the window's seconds but outside every slice's, and
    ``wall_s`` is the sum of the slices.
    """
    from repro.errors import WeaverError

    dispatch = deployment.dispatch()
    collect_garbage = deployment.db.collect_garbage
    canonical = wl.canonical
    read_kinds = wl.READ_KINDS
    clock = time.perf_counter
    requests: List[tuple] = []          # (index, kind, start, end), traced only
    done: List[dict] = []
    gc_cycles = 0
    since_gc = 0
    index = first
    reads: List[float] = []
    writes: List[float] = []
    probe_begin = host_probe_ms() if probe else []
    cpu_mark = deployment.cpu_seconds()
    begin = slice_begin = clock()
    slice_ops = 0
    deadline = math.inf if seconds is None else begin + seconds
    slice_end = math.inf if seconds is None else begin + seconds / slices

    def close_slice(now: float) -> None:
        nonlocal reads, writes, cpu_mark, slice_begin, slice_ops
        cpu_now = deployment.cpu_seconds()
        done.append({
            "ops": slice_ops, "wall_s": now - slice_begin,
            "reads": reads, "writes": writes,
            "cpu_s": {k: cpu_now[k] - cpu_mark[k] for k in cpu_now},
        })
        if probe:
            done[-1]["probe_ms"] = host_probe_ms()
            now = clock()
            cpu_now = deployment.cpu_seconds()
        reads, writes, cpu_mark = [], [], cpu_now
        slice_begin, slice_ops = now, 0

    while index < stop:
        kind, vertex, a, b, expected = ops[index]
        start = clock()
        if start >= slice_end:
            close_slice(start)
            if start >= deadline:
                break
            slice_end += seconds / slices
            continue
        frame = recorder.begin("bench.op") if recorder is not None else None
        if gc_every and since_gc == gc_every:
            collect_garbage()
            gc_cycles += 1
            since_gc = 0
        try:
            result = dispatch[kind](vertex, a, b)
            answered = True
        except WeaverError as exc:
            answered = False
            tally.failed += 1
            tally.note(f"op {index} {kind}({vertex}) raised {exc!r:.160}")
        end = clock()
        if frame is not None:
            recorder.end(frame)
            if len(requests) < tracing.WATERFALL_REQUESTS:
                requests.append((index, kind, start, end))
                if len(requests) == tracing.WATERFALL_REQUESTS:
                    recorder.stop_waterfalls()
        (reads if kind in read_kinds else writes).append(end - start)
        tally.attempted += 1
        if answered and canonical(kind, result) != expected:
            tally.wrong += 1
            tally.note(
                f"op {index} {kind}({vertex}): got "
                f"{canonical(kind, result)!r:.120}, want {expected!r:.120}"
            )
        since_gc += 1
        slice_ops += 1
        index += 1
    if slice_ops:
        close_slice(clock())
    return {
        "ops": index - first, "wall_s": sum(piece["wall_s"] for piece in done),
        "slices": done,
        "gc_cycles": gc_cycles, "requests": requests, "probe_begin": probe_begin,
    }


def _end_state_checks(
    deployment: Deployment, inputs: wl.Inputs, executed: int, tally: Tally
) -> dict:
    """What the deployment must hold once ``executed`` ops have run."""
    model = inputs.model_after(executed)
    hot = inputs.hottest
    client = deployment.client
    tally.check("end: get_node(hottest)", client.get_node(hot), model.node(hot))
    tally.check(
        "end: get_edges(hottest)",
        wl.canonical("get_edges", client.get_edges(hot)), model.edges(hot),
    )
    state = {"live_edges": model.live_edges(), "file_bytes": deployment.file_bytes()}
    if deployment.store_path is not None:
        # Acknowledged writes must be on disk: close, reopen the file cold.
        from repro.db.operations import graph_state_from_store
        from repro.store.durable import DurableStore

        deployment.close()
        with DurableStore(deployment.store_path, read_only=True) as store:
            vertices, edges = graph_state_from_store(store.snapshot())
        tally.check("reopen: live edges", len(edges), model.live_edges())
        tally.check(
            "reopen: hottest vertex edges",
            sorted((h, rec["dst"]) for (src, h), rec in edges.items() if src == hot),
            model.edges(hot),
        )
        tally.check(
            "reopen: hottest vertex properties",
            vertices.get(hot), model.node(hot)["properties"],
        )
    return state


def run(name: str, seed: int, seconds: float, mode: str, run_dir: str) -> dict:
    pinned_cpu = pin_to_one_cpu()       # before anything is timed or forked
    workload = wl.WORKLOADS[name]
    if mode == "setup":
        timed_ops = 0
    elif mode == "timed":
        timed_ops = int(workload.max_ops_per_s * seconds)
    else:
        timed_ops = fixed_ops(workload, seconds)
    inputs = wl.generate(name, seed, timed_ops)

    recorder = tracing.Recorder() if mode == "traced" else None
    if recorder is not None:
        tracing.install_layer_spans(recorder)
    tracing.install_worker_hooks(run_dir, recorder)

    probe_before = host_probe_ms()
    tally = Tally()
    result = {
        "workload": name, "seed": seed, "mode": mode, "seconds": seconds,
        "cpu_count": os.cpu_count(), "pinned_cpu": pinned_cpu,
    }

    setup_begin = time.perf_counter()
    deployment = Deployment(workload, run_dir)
    try:
        deployment.load(inputs.load)
        drive(deployment, inputs.ops, 0, wl.WARMUP_OPS, tally)
        setup_raw_s = time.perf_counter() - setup_begin
        probe_after = host_probe_ms()
        result["setup_raw_s"] = setup_raw_s
        result["setup_s"] = setup_raw_s / host_factor(probe_before + probe_after)

        if mode != "setup":
            metrics = deployment.db.metrics
            counters_before = metrics.snapshot()
            if recorder is not None:
                recorder.start()
            # Same slice length in every mode; a fixed-count run only has
            # a later deadline.
            slices = max(1, min(WINDOW_SLICES, int(seconds / MIN_SLICE_S)))
            stretch = 1 if mode == "timed" else FIXED_DEADLINE_FACTOR
            window = drive(
                deployment, inputs.ops, wl.WARMUP_OPS, len(inputs.ops), tally,
                seconds=seconds * stretch, slices=slices * stretch,
                gc_every=workload.gc_every, recorder=recorder, probe=True,
            )
            if recorder is not None:
                recorder.stop()
            counters_after = metrics.snapshot()
            result.update(summarize(window))
            result.update(
                rss_mb=deployment.peak_rss_mb(),
                counters={
                    key: counters_after[key] - counters_before.get(key, 0)
                    for key in counters_after
                },
                n_workers=len([r for r in deployment.pids if r != "oracle"]),
            )
            result["end_state"] = _end_state_checks(
                deployment, inputs, wl.WARMUP_OPS + window["ops"], tally
            )
    finally:
        deployment.close()
    result["calibration_ms"] = [
        statistics.median(probe_before), statistics.median(host_probe_ms())
    ]
    result.update(
        attempted=tally.attempted, failed=tally.failed, wrong=tally.wrong,
        examples=tally.examples,
    )
    if recorder is not None:
        tables = [recorder.table()] + tracing.load_worker_tables(run_dir)
        result["spans"] = {t["role"]: t["agg"] for t in tables}
        result["waterfalls"] = tracing.waterfalls(window["requests"], tables)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--run-dir", required=True,
                        help="scratch directory of this run (store file, "
                             "sockets, worker pid and span files)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    # ProcessWeaver binds its AF_UNIX sockets under tempfile.mkdtemp(); keep
    # them in the run directory unless "<run-dir>/weaver-XXXXXXXX/oracle.sock"
    # would overflow sun_path (107 bytes).
    if len(args.run_dir) <= 75:
        tempfile.tempdir = args.run_dir
    result = run(args.workload, args.seed, args.seconds, args.mode, args.run_dir)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
