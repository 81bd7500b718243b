"""Seed-equivalent reference reachability for the timeline oracle.

:class:`ReferenceEventDependencyGraph` preserves the original, unindexed
``reaches()``: a BFS whose every expansion scans **all** events with an
explicit out-edge and runs a full vector compare per candidate.  It
exists for two reasons:

* the differential test (``tests/test_oracle_differential.py``) checks
  the indexed implementation against it on randomized event DAGs,
  including across ``remove_event``/``collect_below``;
* :func:`compare_fastpath` times one oracle-heavy schedule on the
  skyline-indexed :class:`~repro.core.oracle.EventDependencyGraph` and
  on this one: ``benchmarks/test_micro_ordering.py`` records the result
  as ``BENCH_ordering.json``, and ``benchmarks/test_perf_guard.py`` runs
  a small configuration as a regression guard that records nothing.

Both graphs answer every ``reaches`` query identically; only the work
they do differs.  The reference searches even a pair that one explicit
edge decides, which the indexed graph answers by lookup.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.core.oracle import EventDependencyGraph, EventId, TimelineOracle
from repro.core.vclock import Ordering, VectorClock, VectorTimestamp


class ReferenceEventDependencyGraph(EventDependencyGraph):
    """The seed's scan-all BFS, kept verbatim as the oracle's reference.

    Inherits all bookkeeping (the skyline index is maintained but unused
    here, which keeps ``add_order``/``remove_event`` identical) and
    overrides only the reachability search.
    """

    def reaches(self, a: VectorTimestamp, b: VectorTimestamp) -> bool:
        if a.id not in self._events or b.id not in self._events:
            return False
        if a.happens_before(b):
            return True
        seen: Set[EventId] = {a.id}
        frontier = deque([a.id])
        while frontier:
            current = self._events[frontier.popleft()]
            if current.happens_before(b):
                return True
            for succ_id in self._succ[current.id]:
                if succ_id == b.id:
                    return True
                if succ_id not in seen:
                    seen.add(succ_id)
                    frontier.append(succ_id)
            # Implied successors: every event with an explicit out-edge,
            # scanned in full — the O(events) cost the skyline index
            # replaces.
            for other_id in self._has_out:
                if other_id in seen:
                    continue
                if current.happens_before(self._events[other_id]):
                    seen.add(other_id)
                    frontier.append(other_id)
        return False


def reference_oracle() -> TimelineOracle:
    """A timeline oracle running on the unindexed reference graph."""
    return TimelineOracle(graph=ReferenceEventDependencyGraph())


# -- the ordering fast path, timed against the reference ---------------


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
    num_events: int = 800,
    num_pairs: int = 2000,
    num_gatekeepers: int = 3,
    observe_probability: float = 0.02,
    seed: int = 7,
) -> Dict:
    """Run the schedule on both implementations and report the speedup."""
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
            "decisions": indexed.stats.decisions,
        },
    }
