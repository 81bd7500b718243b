"""Traversal microbenchmark: batched scatter-gather vs seed per-vertex.

Builds a multi-shard Weaver holding a seeded random connected graph and
runs the same BFS node program two ways at the same checkpoint:

* **batched** — the round-based executor with a
  :class:`~repro.programs.routing.ShardSnapshotResolver`, which resolves
  each round's frontier per owning shard against the shard's view of
  the stamp, so its comparison memo persists across the traversal and
  same-round duplicate hops are deduped.  Each timed repeat starts with
  no view kept, as a first read at a stamp does;
* **seed** — what programs ran on before rounds: the per-vertex loop
  (no longer under ``src/``; the caller passes it in, the benchmarks use
  ``tests/reference_executor.py``) over the per-vertex closure both
  resolvers used then — a brand-new ``SnapshotView`` (and a brand-new
  cold comparison memo) per vertex resolution, one resolution per
  queued hop.

``benchmarks/test_micro_programs.py`` records the result as
``BENCH_programs.json``; ``benchmarks/test_perf_guard.py`` runs a small
configuration asserting the structural counters (snapshot constructions,
batch messages) rather than wall clock.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Tuple

from ..db import Weaver, WeaverConfig
from ..programs.framework import ProgramExecutor
from ..programs.library import Bfs, params
from ..programs.routing import ShardSnapshotResolver


def build_database(
    num_vertices: int = 800,
    avg_degree: int = 12,
    num_shards: int = 4,
    num_gatekeepers: int = 2,
    seed: int = 13,
    ops_per_tx: int = 200,
) -> Tuple[Weaver, List[str]]:
    """A multi-shard Weaver with a seeded random connected graph.

    A spanning tree from the first vertex guarantees the whole graph is
    BFS-reachable; extra random edges raise the average out-degree to
    ``avg_degree`` so traversals revisit vertices from many parents —
    the workload shape that separates the two resolver strategies.
    """
    rng = random.Random(seed)
    db = Weaver(
        WeaverConfig(
            num_shards=num_shards,
            num_gatekeepers=num_gatekeepers,
            partitioner="hash",
        )
    )
    handles = [f"n{i}" for i in range(num_vertices)]

    def batched(make_ops) -> None:
        pending = 0
        tx = db.begin_transaction()
        for op in make_ops:
            op(tx)
            pending += 1
            if pending >= ops_per_tx:
                tx.commit()
                tx = db.begin_transaction()
                pending = 0
        if pending:
            tx.commit()
        else:
            tx.abort()

    batched(
        (lambda t, h=h: t.create_vertex(h)) for h in handles
    )
    edge_ops = []
    seen = set()
    for i in range(1, num_vertices):
        parent = handles[rng.randrange(i)]
        edge_ops.append((parent, handles[i]))
        seen.add((parent, handles[i]))
    extra = num_vertices * avg_degree - len(edge_ops)
    while extra > 0:
        src, dst = rng.sample(handles, 2)
        if (src, dst) in seen:
            continue
        seen.add((src, dst))
        edge_ops.append((src, dst))
        extra -= 1
    batched(
        (lambda t, s=s, d=d: t.create_edge(s, d)) for s, d in edge_ops
    )
    return db, handles


def _seed_resolver(db: Weaver, point, counters: Dict[str, int]):
    """The pre-optimization per-vertex resolver, with construction
    accounting: one fresh snapshot view (cold memo) per resolution."""

    def resolve(handle: str):
        shard_index = db._shard_of(handle)
        if shard_index is None:
            return None
        shard = db.shards[shard_index]
        shard.stats.vertices_read += 1
        shard.ensure_paged(handle)
        counters["snapshots_created"] += 1
        counters["resolutions"] += 1
        snapshot = shard.graph.at(point, memo_stats=shard.ordering.stats)
        if not snapshot.has_vertex(handle):
            return None
        return snapshot.vertex(handle)

    return resolve


def compare_traversal(
    seed_execute: Callable,
    num_vertices: int = 800,
    avg_degree: int = 12,
    num_shards: int = 4,
    num_gatekeepers: int = 2,
    seed: int = 13,
    repeats: int = 3,
) -> Dict:
    """Time the same BFS both ways at one checkpoint; report the speedup.

    ``seed_execute(program, start, resolve, ts)`` is the per-vertex
    reference loop.  Both runs traverse the identical frontier from the
    first vertex and must produce identical results and read sets
    (asserted structurally here and exhaustively in
    ``tests/test_program_differential.py``).
    """
    db, handles = build_database(
        num_vertices=num_vertices,
        avg_degree=avg_degree,
        num_shards=num_shards,
        num_gatekeepers=num_gatekeepers,
        seed=seed,
    )
    point = db.checkpoint()
    db._make_shards_ready(point)
    root = handles[0]
    start = [(root, params(depth=0))]

    batched_seconds = float("inf")
    batched_executor = ProgramExecutor()
    batched_result = None
    for _ in range(repeats):
        for shard in db.shards:
            shard._view = None          # a cold view, built in the run
        resolver = ShardSnapshotResolver(
            point,
            db._shard_of,
            db.shards,
            stats=batched_executor.stats,
            page_in=True,
        )
        started = time.perf_counter()
        result = batched_executor.execute(Bfs(), start, resolver, point)
        batched_seconds = min(
            batched_seconds, time.perf_counter() - started
        )
        batched_result = result
        last_resolver = resolver

    seed_seconds = float("inf")
    seed_counters = {"snapshots_created": 0, "resolutions": 0}
    seed_result = None
    for _ in range(repeats):
        counters = {"snapshots_created": 0, "resolutions": 0}
        resolve = _seed_resolver(db, point, counters)
        started = time.perf_counter()
        result = seed_execute(Bfs(), start, resolve, point)
        seed_seconds = min(seed_seconds, time.perf_counter() - started)
        seed_result = result
        seed_counters = counters

    stats = batched_executor.stats
    return {
        "num_vertices": num_vertices,
        "num_edges": num_vertices * avg_degree,
        "num_shards": num_shards,
        "num_gatekeepers": num_gatekeepers,
        "batched_seconds": batched_seconds,
        "seed_seconds": seed_seconds,
        "speedup": (
            seed_seconds / batched_seconds
            if batched_seconds > 0
            else float("inf")
        ),
        "results_equal": batched_result.results == seed_result.results,
        "read_sets_equal": batched_result.read_set == seed_result.read_set,
        "batched_counters": {
            # Per single query (the last repeat's resolver).
            "snapshots_per_query": last_resolver.snapshots_created,
            "rounds": batched_result.rounds,
            # Across all repeats (executor-lifetime totals).
            "snapshots_created": stats.snapshots_created,
            "snapshot_reuse_hits": stats.snapshot_reuse_hits,
            "vertices_resolved": stats.vertices_resolved,
            "shard_batches": stats.shard_batches,
            "round_messages_saved": stats.round_messages_saved,
            "dedup_hits": stats.dedup_hits,
        },
        "seed_counters": {
            # Per single query: one fresh snapshot per resolution.
            "snapshots_per_query": seed_counters["snapshots_created"],
            "resolutions": seed_counters["resolutions"],
        },
    }
