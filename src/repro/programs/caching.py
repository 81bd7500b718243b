"""Memoization of node-program results at vertices (section 4.6).

Weaver lets applications memoize node-program results and reuse them in
later executions, provided the application can detect that the graph
changed underneath the cached value.  This module implements that
contract:

* :class:`ProgramCache` stores results keyed by (program name, program
  instance state, start vertex, params key);
* every cached entry records the set of vertices the program read and a
  per-vertex *change counter* captured at caching time;
* the database bumps a vertex's change counter on every write to it, so a
  lookup revalidates by comparing counters — any structural change along
  the cached read set invalidates the entry, which is exactly the
  invalidate-on-change discipline the paper describes for cached paths.

The paper's evaluation disables this mechanism; ablation benchmark A1
measures what it buys and what invalidation costs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterable, Optional, Tuple

CacheKey = Tuple[str, Optional[str], str, Hashable]


class ChangeTracker:
    """Monotone per-vertex write counters, bumped by the database."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def bump(self, vertex: str) -> None:
        self._counters[vertex] = self._counters.get(vertex, 0) + 1

    def bump_all(self, vertices: Iterable[str]) -> None:
        for vertex in vertices:
            self.bump(vertex)

    def version(self, vertex: str) -> int:
        return self._counters.get(vertex, 0)

    def snapshot(self, vertices: Iterable[str]) -> Dict[str, int]:
        return {v: self.version(v) for v in vertices}

    def unchanged(self, observed: Dict[str, int]) -> bool:
        return all(
            self.version(vertex) == counter
            for vertex, counter in observed.items()
        )

    def reset(self) -> None:
        """Forget all counters (epoch change: cached evidence recorded
        against the old epoch's applies must not validate new reads)."""
        self._counters.clear()


class CacheEntry:
    """One memoized result plus its validity evidence."""

    __slots__ = ("value", "observed", "reads")

    def __init__(self, value: Any, observed: Dict[str, int]):
        self.value = value
        self.observed = observed
        self.reads = len(observed)


class ProgramCache:
    """An LRU cache of node-program results with change-based validity."""

    def __init__(self, tracker: ChangeTracker, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._tracker = tracker
        self._capacity = capacity
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key(
        program_name: str, init: Optional[dict], start: str,
        params_key: Hashable,
    ) -> CacheKey:
        """A program is its name *and* its instance state (``init``, its
        ``vars()``): ``WeightedShortestPath("cost")`` and ``("lat")``
        share a name and must not share an entry."""
        identity = repr(sorted(init.items())) if init else None
        return (program_name, identity, start, params_key)

    def get(self, key: CacheKey) -> Optional[Any]:
        """The cached value, or None when absent or stale.

        Stale entries (any vertex in the read set changed since caching)
        are discarded on discovery — the application-driven invalidation
        of section 4.6.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if not self._tracker.unchanged(entry.observed):
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry.value

    def put(self, key: CacheKey, value: Any, read_set: Iterable[str]) -> None:
        """Memoize ``value``, remembering the current change counters of
        every vertex the program read."""
        self._entries[key] = CacheEntry(
            value, self._tracker.snapshot(read_set)
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)

    def invalidate(self, key: CacheKey) -> None:
        """Drop one entry whose validity was refuted externally (the
        shard-resident path revalidates remote read-set fragments with
        peer counter checks the local tracker cannot see)."""
        if self._entries.pop(key, None) is not None:
            self.invalidations += 1

    def clear(self) -> None:
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
