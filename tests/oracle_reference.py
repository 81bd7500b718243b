"""Seed-equivalent reference reachability for the timeline oracle.

:class:`ReferenceEventDependencyGraph` preserves the original, unindexed
``reaches()``: a BFS whose every expansion scans **all** events with an
explicit out-edge and runs a full vector compare per candidate.  It
exists for two reasons:

* the differential test (``tests/test_oracle_differential.py``) checks
  the indexed implementation against it on randomized event DAGs,
  including across ``remove_event``/``collect_below``;
* the ordering microbenchmark and perf guard
  (``benchmarks/test_micro_ordering.py``, ``benchmarks/test_perf_guard.py``)
  pass it to :func:`repro.bench.ordering_bench.compare_fastpath` as the
  before-side of the before/after measurement.

Both graphs answer every ``reaches`` query identically; only the work
they do differs.
"""

from __future__ import annotations

from collections import deque
from typing import Set

from repro.core.oracle import EventDependencyGraph, EventId, TimelineOracle
from repro.core.vclock import VectorTimestamp


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
