"""Memoization of node-program results (section 4.6).

Weaver lets applications memoize node-program results and reuse them in
later executions, provided the application can detect that the graph
changed underneath the cached value.  This module implements that
contract, held once per deployment by the client-side coordinator:

* :class:`ProgramCache` stores results keyed by (program name, program
  instance state, start vertex, params key);
* every cached entry records the set of vertices the program read and a
  per-vertex *change counter* captured at caching time;
* the coordinator bumps a vertex's change counter on every commit
  attempt that writes it (:class:`ChangeTracker`, the one change record
  the read-stamp rule consults too), so a lookup revalidates by
  comparing counters
  — any structural change along the cached read set invalidates the
  entry, which is exactly the invalidate-on-change discipline the paper
  describes for cached paths.

The paper's evaluation disables this mechanism; ablation benchmark A1
measures what it buys and what invalidation costs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterable, Optional, Tuple

CacheKey = Tuple[str, Optional[str], str, Hashable]


class ChangeTracker:
    """The per-vertex change record, bumped by the database on every
    commit attempt.

    ``attempts`` numbers the attempts; a vertex's version is the number
    of the last attempt that wrote it (0: none did), so it is monotone
    and moves exactly when the vertex is written.  The program cache
    compares versions it captured; a current read compares them with
    the attempt its stamp was issued after (:meth:`unchanged_since`).
    """

    def __init__(self) -> None:
        self.attempts = 0
        self._written: Dict[str, int] = {}

    def bump(self, vertex: str) -> None:
        self.bump_all((vertex,))

    def bump_all(self, vertices: Iterable[str]) -> None:
        """One attempt, writing ``vertices``."""
        self.attempts = attempt = self.attempts + 1
        written = self._written
        for vertex in vertices:
            written[vertex] = attempt

    def version(self, vertex: str) -> int:
        return self._written.get(vertex, 0)

    def snapshot(self, vertices: Iterable[str]) -> Dict[str, int]:
        return {v: self.version(v) for v in vertices}

    def unchanged(self, observed: Dict[str, int]) -> bool:
        return all(
            self.version(vertex) == counter
            for vertex, counter in observed.items()
        )

    def unchanged_since(self, vertices: Iterable[str], attempt: int) -> bool:
        """No attempt after number ``attempt`` wrote any of ``vertices``."""
        version = self._written.get
        return all(version(vertex, 0) <= attempt for vertex in vertices)


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
        # len(self), kept as a field so the registry absorbs it with
        # the counters (``program.cache.entries``).
        self.entries = 0

    def __len__(self) -> int:
        return self.entries

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
            self.entries -= 1
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
        self.entries = len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.entries = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
