"""Fig 13-style shard scaling over the real multiprocess transport.

One seeded random graph is loaded into a
:class:`~repro.cluster.process.ProcessWeaver` at several worker counts
and the same batch of traversal queries is timed at each; the identical
graph and queries also run on the deterministic
:class:`~repro.sim.deployment.SimulatedWeaver` twin, whose results the
process runs must match exactly (``results_equal``) — the simulator is
the correctness referee, the processes are the performance claim.

Node programs run at the shard workers (see
:mod:`~repro.cluster.process`): the client sends one request per query
and the workers run the rounds among themselves.  Adding workers adds
throughput **only on multi-core hardware** — the recorded ``cpu_count``
tells the consumer whether the scaling number means anything on the
host that produced it.

``benchmarks/test_transport_scaling.py`` records the scaling result as
``BENCH_transport.json``'s ``scaling`` section (carrying the
``cpu_count`` it was measured on; see :func:`record_bench` for the
provenance rules).  That file's ``resident`` section is history: the
last comparison against the deleted client-side image pull.

:func:`resident_experiment` counts what one query batch puts on the
wire — one client request per query, O(shards) coordination frames per
round among the workers — and checks its results against the twin.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import time
from typing import Dict, List, Tuple

from ..cluster.process import ProcessWeaver
from ..db.config import WeaverConfig
from ..db.operations import CreateEdge, CreateVertex
from ..programs.library import CollectReachable
from ..sim.deployment import SimulatedWeaver

#: Scaling/speedup bars only mean something with real parallel hardware.
MIN_MEANINGFUL_CORES = 4

QueryResults = List[Tuple[str, ...]]


def graph_spec(
    num_vertices: int = 400, avg_degree: int = 4, seed: int = 29
) -> Tuple[List[str], List[Tuple[str, str]]]:
    """A seeded connected random graph: spanning tree + extra edges."""
    rng = random.Random(seed)
    handles = [f"n{i}" for i in range(num_vertices)]
    edges: List[Tuple[str, str]] = []
    seen = set()
    for i in range(1, num_vertices):
        parent = handles[rng.randrange(i)]
        edges.append((parent, handles[i]))
        seen.add((parent, handles[i]))
    extra = num_vertices * avg_degree - len(edges)
    while extra > 0:
        src, dst = rng.sample(handles, 2)
        if (src, dst) in seen:
            continue
        seen.add((src, dst))
        edges.append((src, dst))
        extra -= 1
    return handles, edges


def query_roots(
    handles: List[str], num_queries: int = 40, seed: int = 31
) -> List[str]:
    """Zipf-flavoured root choice: hot heads, long tail."""
    rng = random.Random(seed)
    return [
        handles[min(int(rng.paretovariate(1.2)) - 1, len(handles) - 1)]
        for _ in range(num_queries)
    ]


def _load_graph(db: ProcessWeaver, handles, edges, ops_per_tx=100) -> None:
    calls = [("create_vertex", (handle,)) for handle in handles]
    calls += [("create_edge", edge) for edge in edges]
    for base in range(0, len(calls), ops_per_tx):
        tx = db.begin_transaction()
        for method, args in calls[base:base + ops_per_tx]:
            getattr(tx, method)(*args)
        tx.commit()
    db.drain()


def run_process(
    num_shards: int,
    handles: List[str],
    edges: List[Tuple[str, str]],
    roots: List[str],
    num_gatekeepers: int = 2,
    partitioner: str = "round_robin",
) -> Dict:
    """Load the graph and time the query batch at one worker count."""
    config = WeaverConfig(
        num_shards=num_shards, num_gatekeepers=num_gatekeepers,
        partitioner=partitioner,
    )
    with ProcessWeaver(config) as db:
        _load_graph(db, handles, edges)
        # Warm-up query: pays the readiness storm and worker page-in so
        # the timed batch measures steady-state throughput.
        db.run_program(CollectReachable(), roots[0])
        before = db.metrics.snapshot()
        requests = db.transport.stats.requests
        results: QueryResults = []
        started = time.perf_counter()
        for root in roots:
            outcome = db.run_program(CollectReachable(), root)
            results.append(tuple(sorted(outcome.results)))
        elapsed = time.perf_counter() - started
        requests = db.transport.stats.requests - requests
        snap = db.metrics.snapshot()

        def delta(key: str) -> float:
            return snap.get(key, 0) - before.get(key, 0)

        rounds = delta("program.resident.rounds_executed")
        forwards = delta("program.resident.forwards_sent")
        return {
            "shards": num_shards,
            "elapsed_seconds": elapsed,
            "throughput_qps": len(roots) / elapsed if elapsed > 0 else 0.0,
            "results": results,
            "transport": {
                "bytes_sent": snap.get("transport.bytes_sent", 0),
                "bytes_received": snap.get("transport.bytes_received", 0),
                "requests": snap.get("transport.requests", 0),
                "requests_pipelined": snap.get(
                    "transport.requests_pipelined", 0
                ),
                "batches_sent": snap.get("transport.batches_sent", 0),
                "batched_messages": snap.get(
                    "transport.batched_messages", 0
                ),
            },
            # The timed batch alone.  Peer coordination per round slice:
            # forwards + round reports, each bounded by the shard count,
            # not the frontier size.
            "batch": {
                "client_requests": requests,
                "forwards_sent": forwards,
                "round_slices": rounds,
                "wire_messages_per_round": (
                    forwards + delta("program.resident.round_reports")
                ) / rounds if rounds else 0.0,
            },
        }


def run_simulated(
    num_shards: int,
    handles: List[str],
    edges: List[Tuple[str, str]],
    roots: List[str],
    num_gatekeepers: int = 2,
    ops_per_tx: int = 100,
) -> QueryResults:
    """The deterministic twin: same graph, same queries, simulated time."""
    config = WeaverConfig(
        num_shards=num_shards, num_gatekeepers=num_gatekeepers
    )
    sim = SimulatedWeaver(config)

    def submit(ops):
        sim.submit_transaction(ops)
        sim.run(0.01)

    for base in range(0, len(handles), ops_per_tx):
        chunk = handles[base:base + ops_per_tx]
        submit([CreateVertex(h) for h in chunk])
    for base in range(0, len(edges), ops_per_tx):
        chunk = edges[base:base + ops_per_tx]
        submit(
            [
                CreateEdge(f"b{base}_{i}", src, dst)
                for i, (src, dst) in enumerate(chunk)
            ]
        )
    results: List[Tuple[str, ...]] = []

    def capture(outcome) -> None:
        results.append(tuple(sorted(outcome.results)))

    for root in roots:
        sim.submit_program(CollectReachable(), root, callback=capture)
        sim.run_until_quiet(max_extra=2.0)
    return results


def scaling_experiment(
    shard_counts: Tuple[int, ...] = (1, 2, 4),
    num_vertices: int = 400,
    avg_degree: int = 4,
    num_queries: int = 40,
    seed: int = 29,
) -> Dict:
    """The full experiment: per-worker-count throughput + twin parity."""
    handles, edges = graph_spec(num_vertices, avg_degree, seed)
    roots = query_roots(handles, num_queries, seed + 2)
    reference = run_simulated(max(shard_counts), handles, edges, roots)
    points = []
    for count in shard_counts:
        point = run_process(count, handles, edges, roots)
        point["results_equal"] = point.pop("results") == reference
        points.append(point)
    first, last = points[0], points[-1]
    return {
        "cpu_count": os.cpu_count(),
        "num_vertices": num_vertices,
        "num_edges": len(edges),
        "num_queries": num_queries,
        "shard_counts": list(shard_counts),
        "points": points,
        "scaling": (
            last["throughput_qps"] / first["throughput_qps"]
            if first["throughput_qps"] > 0
            else 0.0
        ),
        "results_equal": all(p["results_equal"] for p in points),
    }


def resident_experiment(
    num_vertices: int = 800,
    avg_degree: int = 12,
    num_shards: int = 4,
    num_queries: int = 12,
    seed: int = 37,
) -> Dict:
    """What a multi-shard traversal batch puts on the wire: hash
    partitioned so every query crosses shards, results checked against
    the simulated twin."""
    handles, edges = graph_spec(num_vertices, avg_degree, seed)
    roots = query_roots(handles, num_queries, seed + 2)
    point = run_process(
        num_shards, handles, edges, roots, partitioner="hash"
    )
    results = point.pop("results")
    return {
        "cpu_count": os.cpu_count(),
        "num_vertices": num_vertices,
        "num_edges": len(edges),
        "num_shards": num_shards,
        "num_queries": num_queries,
        "resident": point,
        "results_equal": results == run_simulated(
            num_shards, handles, edges, roots
        ),
    }


def record_bench(path, section: str, result: Dict) -> bool:
    """Merge ``result`` under ``section`` in the bench JSON at ``path``.

    Provenance rule: a recording measured on a host with at least
    :data:`MIN_MEANINGFUL_CORES` cores is never overwritten by one from
    a smaller host — scaling and speedup numbers from a 1-core box would
    silently replace the only meaningful archive.  Returns whether the
    section was written.  Legacy flat files (the pre-section layout) are
    adopted as the ``scaling`` section.
    """
    path = pathlib.Path(path)
    data: Dict = {}
    if path.exists():
        data = json.loads(path.read_text())
        if "points" in data:  # legacy flat layout
            data = {"scaling": data}
    existing = data.get(section)
    new_cores = result.get("cpu_count") or 1
    if existing is not None:
        old_cores = existing.get("cpu_count") or 1
        if old_cores >= MIN_MEANINGFUL_CORES > new_cores:
            return False
    data[section] = result
    path.write_text(json.dumps(data, indent=2) + "\n")
    return True
