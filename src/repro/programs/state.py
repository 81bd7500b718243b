"""Per-query program state and the garbage-collection watermark.

Node programs are stateful (section 2.3): a traversal stores a visited
bit per vertex, a shortest-path query stores distances.  That state lives
outside the graph, keyed by query id, and is garbage collected when the
query finishes on all servers (section 4.5).  The watermark registry
tracks the timestamps of all in-flight programs; its minimum is the
boundary below which multi-version state may be reclaimed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.vclock import Ordering, VectorTimestamp
from ..graph.properties import Comparator, vclock_compare


class ProgramContext:
    """Everything one running node program accumulates.

    * ``states`` — per-vertex ``prog_state`` objects, created lazily and
      persisted across repeated visits of the same vertex;
    * ``results`` — values the program emitted;
    * ``halted`` — set by :meth:`halt` for early termination (e.g. a
      reachability query that found its target);
    * ``visits_left`` — frontier entries the program may still run, the
      runaway guard :func:`~repro.programs.framework.run_round` enforces
      (whoever drives the rounds sets it; unlimited until then);
    * ``memo`` — the program's per-query scratch.
    """

    def __init__(self, query_id: int, ts: VectorTimestamp):
        self.query_id = query_id
        self.ts = ts
        self.states: Dict[str, Any] = {}
        self.results: List[Any] = []
        self.halted = False
        self.visits_left = float("inf")
        self.vertices_visited = 0
        self.hops = 0
        # Scatter-gather rounds driven.
        self.rounds = 0
        # Every vertex handle the program touched (visible or not): the
        # cache's read set for change-based invalidation (section 4.6).
        self.read_set: set = set()
        # What the program derives once per query and reuses across
        # vertices (``Bfs``'s next-hop params per depth); it is not the
        # program's, so it goes when the query does.
        self.memo: Dict[Any, Any] = {}

    def emit(self, value: Any) -> None:
        self.results.append(value)

    def halt(self) -> None:
        self.halted = True


class WatermarkRegistry:
    """Tracks in-flight program timestamps for GC (section 4.5).

    ``start``/``finish`` bracket each program; :meth:`watermark` returns a
    timestamp below which no active program can read — the minimum of the
    active set under the supplied comparator, or ``fallback`` when the
    system is idle.
    """

    def __init__(self, cmp: Comparator = vclock_compare):
        self._active: Dict[int, VectorTimestamp] = {}
        self._cmp = cmp
        self.completed = 0

    def __len__(self) -> int:
        return len(self._active)

    def start(self, query_id: int, ts: VectorTimestamp) -> None:
        self._active[query_id] = ts

    def finish(self, query_id: int) -> None:
        self._active.pop(query_id, None)
        self.completed += 1

    def watermark(
        self, fallback: Optional[VectorTimestamp] = None
    ) -> Optional[VectorTimestamp]:
        """The oldest active program timestamp (or ``fallback`` if idle).

        State strictly older than this is invisible to every current and
        future query — future queries get still-newer timestamps — so it
        may be reclaimed.
        """
        if not self._active:
            return fallback
        oldest = None
        for ts in self._active.values():
            if oldest is None:
                oldest = ts
            elif self._cmp(ts, oldest) is Ordering.BEFORE:
                oldest = ts
        return oldest
