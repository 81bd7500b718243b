"""Timestamped property records for the multi-version graph.

Weaver marks every written object with the refinable timestamp of the
writing transaction (section 4.2): a deleted edge is not removed but
tombstoned with the deletion timestamp.  The same applies to named
properties on vertices and edges.  :class:`LifeSpan` is that pair of
timestamps, and :class:`PropertyRecord` one timestamped value of one named
property.  Visibility decisions are delegated to a comparison callable so
the same records work under raw vector-clock order (in unit tests) and
under full refinable order (inside shard servers).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional

from ..core.vclock import Ordering, VectorTimestamp

Comparator = Callable[[VectorTimestamp, VectorTimestamp], Ordering]


def vclock_compare(a: VectorTimestamp, b: VectorTimestamp) -> Ordering:
    """Default comparator: plain vector-clock order.

    Sufficient whenever all writes came through one gatekeeper (totally
    ordered by construction); shard servers substitute their
    :meth:`~repro.core.ordering.RefinableOrdering.compare`.
    """
    return a.compare(b)


class MemoizedComparator:
    """A bounded memo over a comparator, for one snapshot's visibility
    checks.

    A snapshot view compares every write timestamp it walks against its
    own timestamp ``ts``, once per property record, edge or vertex
    incarnation; since comparator outcomes are stable (vector-clock
    comparisons are pure and oracle decisions irreversible), the repeats
    collapse to one dict lookup.  ``decided`` maps a write timestamp's
    identity to its order against ``ts``; a comparison against any other
    timestamp goes to the comparator unmemoized.  The view's record
    scans read ``decided`` inline and report their lookups that found
    an entry through :meth:`count_hits`, so ``hits`` counts every
    repeat either way.  The memo is bounded and simply resets when full
    — it is a cache, never an authority.
    """

    __slots__ = ("_cmp", "_ts", "decided", "_limit", "_stats", "hits")

    def __init__(
        self,
        cmp: Comparator,
        ts: VectorTimestamp,
        limit: int = 8192,
        stats: Optional[Any] = None,
    ):
        self._cmp = cmp
        self._ts = ts
        self.decided: Dict[Any, Ordering] = {}
        self._limit = limit
        # Optional OrderingStats-like sink with a snapshot_memo_hits field.
        self._stats = stats
        self.hits = 0

    @property
    def wrapped(self) -> Comparator:
        return self._cmp

    def __len__(self) -> int:
        return len(self.decided)

    def __call__(self, a: VectorTimestamp, b: VectorTimestamp) -> Ordering:
        ts = self._ts
        # _id is the precomputed identity behind the ``id`` property;
        # this is the hottest read path, so skip the descriptor.
        if b is not ts and b._id != ts._id:
            return self._cmp(a, b)
        key = a._id
        found = self.decided.get(key)
        if found is not None:
            self.hits += 1
            if self._stats is not None:
                self._stats.snapshot_memo_hits += 1
            return found
        result = self._cmp(a, b)
        if len(self.decided) >= self._limit:
            self.decided.clear()
        self.decided[key] = result
        return result

    def count_hits(self, hits: int) -> None:
        """Record ``hits`` lookups of ``decided`` that found an entry."""
        self.hits += hits
        if self._stats is not None:
            self._stats.snapshot_memo_hits += hits


class LifeSpan:
    """The [created, deleted) timestamp interval of one graph object."""

    __slots__ = ("created_at", "deleted_at")

    def __init__(self, created_at: VectorTimestamp):
        self.created_at = created_at
        self.deleted_at: Optional[VectorTimestamp] = None

    @property
    def is_deleted(self) -> bool:
        return self.deleted_at is not None

    def delete(self, ts: VectorTimestamp) -> None:
        if self.deleted_at is not None:
            raise ValueError("object already deleted")
        self.deleted_at = ts

    def visible_at(self, ts: VectorTimestamp, cmp: Comparator) -> bool:
        """True iff the object exists in the snapshot at ``ts``.

        An object is visible when its creation happened before the
        snapshot and its deletion (if any) did not: exactly the filtering
        rule node-program execution applies in section 4.1.
        """
        if cmp(self.created_at, ts) is not Ordering.BEFORE:
            return False
        if self.deleted_at is None:
            return True
        return cmp(self.deleted_at, ts) is not Ordering.BEFORE

    def dead_before(self, ts: VectorTimestamp, cmp: Comparator) -> bool:
        """True iff deleted strictly before ``ts`` (GC eligibility)."""
        return (
            self.deleted_at is not None
            and cmp(self.deleted_at, ts) is Ordering.BEFORE
        )


class PropertyRecord:
    """One timestamped value of a named property."""

    __slots__ = ("key", "value", "span")

    def __init__(self, key: str, value: Any, created_at: VectorTimestamp):
        self.key = key
        self.value = value
        self.span = LifeSpan(created_at)

    def visible_at(self, ts: VectorTimestamp, cmp: Comparator) -> bool:
        return self.span.visible_at(ts, cmp)


class PropertyBag:
    """All versions of all named properties of one vertex or edge.

    Assigning a property closes the live record of the same key (if any)
    and appends a fresh one, so point-in-time reads can recover any past
    value.
    """

    def __init__(self) -> None:
        self._records: Dict[str, List[PropertyRecord]] = {}

    def assign(self, key: str, value: Any, ts: VectorTimestamp) -> None:
        records = self._records.setdefault(key, [])
        if records and not records[-1].span.is_deleted:
            records[-1].span.delete(ts)
        records.append(PropertyRecord(key, value, ts))

    def remove(self, key: str, ts: VectorTimestamp) -> bool:
        """Tombstone the live record of ``key``; False if none was live."""
        records = self._records.get(key)
        if not records or records[-1].span.is_deleted:
            return False
        records[-1].span.delete(ts)
        return True

    def get(
        self,
        key: str,
        ts: VectorTimestamp,
        cmp: Comparator,
        default: Any = None,
    ) -> Any:
        """Value of ``key`` visible at ``ts``; newest qualifying record."""
        for record in reversed(self._records.get(key, ())):
            if record.visible_at(ts, cmp):
                return record.value
        return default

    def has(self, key: str, ts: VectorTimestamp, cmp: Comparator) -> bool:
        sentinel = object()
        return self.get(key, ts, cmp, default=sentinel) is not sentinel

    def check(
        self,
        key: str,
        ts: VectorTimestamp,
        cmp: Comparator,
        value: Any = None,
    ) -> bool:
        """The paper's ``edge.check(prop)``: property present (and equal to
        ``value`` when given) at the snapshot."""
        sentinel = object()
        found = self.get(key, ts, cmp, default=sentinel)
        if found is sentinel:
            return False
        return True if value is None else found == value

    def items_at(self, ts: VectorTimestamp, cmp: Comparator) -> Dict[str, Any]:
        """All visible key -> value pairs at ``ts``."""
        visible: Dict[str, Any] = {}
        for key, records in self._records.items():
            for record in reversed(records):
                if record.visible_at(ts, cmp):
                    visible[key] = record.value
                    break
        return visible

    def collect_below(self, ts: VectorTimestamp, cmp: Comparator) -> int:
        """Drop records dead before ``ts``; returns the number dropped."""
        dropped = 0
        for key in list(self._records):
            records = self._records[key]
            kept = [r for r in records if not r.span.dead_before(ts, cmp)]
            dropped += len(records) - len(kept)
            if kept:
                self._records[key] = kept
            else:
                del self._records[key]
        return dropped

    def spans(self) -> Iterator[LifeSpan]:
        """The lifespan of every record, of every key."""
        for records in self._records.values():
            for record in records:
                yield record.span

    def version_count(self) -> int:
        return sum(len(records) for records in self._records.values())
