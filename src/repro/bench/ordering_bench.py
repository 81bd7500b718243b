"""Ordering fast-path microbenchmark: indexed oracle vs seed reference.

Builds an oracle-heavy workload — hundreds of events from loosely
synchronized gatekeeper clocks, with a pair schedule whose concurrent
fraction is measured, not assumed — and times the same schedule against
the skyline-indexed :class:`~repro.core.oracle.EventDependencyGraph` and
the seed-equivalent scan-all search (no longer under ``src/``; the
caller passes it in, the benchmarks use ``tests/oracle_reference.py``).

``benchmarks/test_micro_ordering.py`` records the result as
``BENCH_ordering.json``; ``benchmarks/test_perf_guard.py`` runs a small
configuration as a CI regression guard.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..core.oracle import TimelineOracle
from ..core.vclock import Ordering, VectorClock, VectorTimestamp


@dataclass
class OrderingWorkload:
    """A reproducible stamp stream plus pair schedule."""

    stamps: List[VectorTimestamp]
    pairs: List[Tuple[VectorTimestamp, VectorTimestamp]]
    concurrent_fraction: float


def build_workload(
    num_events: int = 800,
    num_pairs: int = 2000,
    num_gatekeepers: int = 3,
    observe_probability: float = 0.02,
    seed: int = 7,
) -> OrderingWorkload:
    """Generate causally-valid stamps and a mixed pair schedule.

    ``observe_probability`` tunes how often gatekeepers fold in a peer's
    announce — lower means more concurrent (oracle-bound) pairs.
    """
    rng = random.Random(seed)
    clocks = [VectorClock(num_gatekeepers, i) for i in range(num_gatekeepers)]
    stamps: List[VectorTimestamp] = []
    while len(stamps) < num_events:
        actor = rng.randrange(num_gatekeepers)
        if rng.random() < observe_probability:
            peer = rng.randrange(num_gatekeepers)
            clocks[actor].observe(clocks[peer].announce())
        stamps.append(clocks[actor].tick())
    pairs = [tuple(rng.sample(stamps, 2)) for _ in range(num_pairs)]
    concurrent = sum(
        1 for a, b in pairs if a.compare(b) is Ordering.CONCURRENT
    )
    return OrderingWorkload(stamps, pairs, concurrent / len(pairs))


def run_schedule(oracle: TimelineOracle, workload: OrderingWorkload) -> float:
    """Drive one oracle through the workload; returns elapsed seconds.

    The schedule orders every pair (committing decisions for concurrent
    ones), then re-queries the whole schedule — the repeat-query pattern
    shard servers generate.
    """
    for ts in workload.stamps:
        oracle.create_event(ts)
    started = time.perf_counter()
    for a, b in workload.pairs:
        oracle.order(a, b)
    for a, b in workload.pairs:
        oracle.query_order(a, b)
    return time.perf_counter() - started


def compare_fastpath(
    reference_oracle: Callable[[], TimelineOracle],
    num_events: int = 800,
    num_pairs: int = 2000,
    num_gatekeepers: int = 3,
    observe_probability: float = 0.02,
    seed: int = 7,
) -> Dict:
    """Run the schedule on both implementations and report the speedup.

    ``reference_oracle()`` builds the oracle on the seed's scan-all
    reachability.
    """
    workload = build_workload(
        num_events=num_events,
        num_pairs=num_pairs,
        num_gatekeepers=num_gatekeepers,
        observe_probability=observe_probability,
        seed=seed,
    )
    indexed = TimelineOracle()
    indexed_seconds = run_schedule(indexed, workload)
    reference = reference_oracle()
    reference_seconds = run_schedule(reference, workload)
    return {
        "num_events": num_events,
        "num_pairs": num_pairs,
        "num_gatekeepers": num_gatekeepers,
        "concurrent_fraction": round(workload.concurrent_fraction, 4),
        "indexed_seconds": indexed_seconds,
        "reference_seconds": reference_seconds,
        "speedup": (
            reference_seconds / indexed_seconds
            if indexed_seconds > 0
            else float("inf")
        ),
        "indexed_counters": {
            "bfs_expansions": indexed.stats.bfs_expansions,
            "bfs_pruned": indexed.stats.bfs_pruned,
            "reach_cache_hits": indexed.stats.reach_cache_hits,
            "decisions": indexed.stats.decisions,
        },
    }
