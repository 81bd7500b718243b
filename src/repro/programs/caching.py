"""Memoization of node-program results (section 4.6).

Weaver lets applications memoize node-program results and reuse them in
later executions, provided the application can detect that the graph
changed underneath the cached value.  The client's read decision
(:class:`~repro.db.database.WritePath`) holds one :class:`ProgramCache`
per deployment.  An entry keeps the vertices the program read and the
commit attempt its stamp was chosen after; the client numbers every
commit attempt and records what each wrote (:class:`ChangeTracker`),
so a lookup revalidates by asking whether a later attempt wrote the
read set — the read-stamp rule's own test, and the paper's
invalidate-on-change discipline for cached paths.

The paper's evaluation disables this mechanism; ablation benchmark A1
measures what it buys and what invalidation costs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterable, Optional, Tuple

CacheKey = Tuple[str, Optional[str], Hashable, Hashable]


class ChangeTracker:
    """The change record, bumped by the client on every commit
    attempt: ``attempts`` numbers them, and each vertex keeps the number
    of the last that wrote it (0: none did)."""

    def __init__(self) -> None:
        self.attempts = 0
        self._written: Dict[str, int] = {}

    def bump_all(self, vertices: Iterable[str]) -> None:
        """One attempt, writing ``vertices``."""
        self.attempts = attempt = self.attempts + 1
        written = self._written
        for vertex in vertices:
            written[vertex] = attempt

    def unchanged_since(self, vertices: Iterable[str], attempt: int) -> bool:
        """No attempt after number ``attempt`` wrote any of ``vertices``."""
        version = self._written.get
        return all(version(vertex, 0) <= attempt for vertex in vertices)


class ProgramCache:
    """An LRU cache of node-program results with change-based validity."""

    def __init__(self, tracker: ChangeTracker, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._tracker = tracker
        self._capacity = capacity
        # key -> (value, read set, the attempt it is valid from)
        self._entries: "OrderedDict[CacheKey, tuple]" = OrderedDict()
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
        program_name: str, init: Optional[dict], start: Hashable,
        params_key: Hashable,
    ) -> CacheKey:
        """A program is its name *and* its instance state (``init``, its
        ``vars()``): ``WeightedShortestPath("cost")`` and ``("lat")``
        share a name and must not share an entry."""
        identity = repr(sorted(init.items())) if init else None
        return (program_name, identity, start, params_key)

    def get(self, key: CacheKey) -> Optional[Any]:
        """The cached value, or None when absent or stale: an entry a
        later commit attempt refuted is discarded on discovery (section
        4.6's application-driven invalidation)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        value, read_set, attempt = entry
        if not self._tracker.unchanged_since(read_set, attempt):
            del self._entries[key]
            self.entries -= 1
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(
        self, key: CacheKey, value: Any, read_set: Iterable[str],
        attempt: int,
    ) -> None:
        """Memoize ``value``, read from ``read_set`` at a stamp chosen
        after commit attempt ``attempt``, until a later one writes it."""
        self._entries[key] = (value, tuple(read_set), attempt)
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
