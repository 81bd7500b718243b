"""Refinable ordering façade: vector clocks first, oracle when needed.

This module packages the paper's two-stage ordering decision behind one
call.  Shard servers use a :class:`RefinableOrdering` instance to compare
any two transaction timestamps; the comparison is resolved proactively by
the vector clocks when possible and escalated to the timeline oracle only
for concurrent pairs (section 3.1).  The façade also keeps the statistics
that the coordination-overhead experiment (Fig 14) reports: how many
comparisons were settled proactively vs. reactively.

Section 4.2 lets a shard cache oracle decisions, which are irreversible.
No shard keeps one: the oracle answers a repeated pair from the order it
already committed to, and measured traffic repeats almost no pair
(ARCHITECTURE.md, "Ordering fast path").
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .oracle import ReplicatedOracle, TimelineOracle
from .vclock import Ordering, VectorTimestamp

class OrderingStats:
    """Counts of how comparisons were resolved (and avoided entirely)."""

    def __init__(self) -> None:
        self.proactive = 0   # settled by vector clocks alone
        self.reactive = 0    # required an oracle round trip
        # Fast-path counters: comparisons that never reached compare() at
        # all.  Snapshot memo hits are visibility checks answered by a
        # per-snapshot dict; heap_compares_saved counts the pairwise
        # comparisons the tournament scheduler reused instead of redoing.
        self.snapshot_memo_hits = 0
        self.heap_compares_saved = 0
        # Geo deadline ordering (Tiga-style): concurrent pairs whose
        # deadlines are separated by more than the clock-skew bound are
        # decided without the oracle (deadline_fastpath); deadline pairs
        # within the bound fall back to the oracle with the
        # deadline total order as the tiebreak (deadline_fallback).
        self.deadline_fastpath = 0
        self.deadline_fallback = 0

    @property
    def total(self) -> int:
        return self.proactive + self.reactive

    @property
    def reactive_fraction(self) -> float:
        return self.reactive / self.total if self.total else 0.0


class RefinableOrdering:
    """Order any two timestamps, cheaply when possible.

    One instance per shard server.  ``oracle`` may be a plain
    :class:`TimelineOracle` or a :class:`ReplicatedOracle`; both expose the
    same ``order``/``query_order`` interface.
    """

    def __init__(
        self,
        oracle,
        skew_bound: Optional[float] = None,
    ):
        self._oracle = oracle
        self.stats = OrderingStats()
        # Clock-skew bound of the geo deadline fast path.  None disables
        # it; when set, concurrent deadline-carrying pairs separated by
        # more than the bound order on deadlines alone, and every closer
        # deadline pair is decided with the deadline total order as the
        # preference, so oracle answers can never contradict a fast-path
        # answer (all decisions embed in one total order).
        self.skew_bound = skew_bound

    @property
    def oracle(self):
        return self._oracle

    @staticmethod
    def _deadline_key(ts: VectorTimestamp):
        """Total order on deadline-carrying stamps: deadline first, then
        the unique stamp identity as a deterministic tiebreak."""
        return (ts.deadline,) + ts.id

    def compare(
        self,
        a: VectorTimestamp,
        b: VectorTimestamp,
        prefer: Ordering = Ordering.BEFORE,
    ) -> Ordering:
        """Resolve the order of (a, b), escalating only when required.

        ``prefer`` is forwarded to the oracle and applies only when the
        pair is concurrent *and* no prior commitment exists: it encodes
        arrival order (for transaction pairs) or the node-programs-after-
        writes rule of section 4.1.  When both stamps carry deadlines and
        the fast path is enabled, the deadline total order replaces the
        arrival preference — a requirement, not an optimization, since
        mixing arrival-preference decisions with deadline decisions could
        build contradictory oracle chains.
        """
        vc = a.compare(b)
        if vc is not Ordering.CONCURRENT:
            self.stats.proactive += 1
            return vc
        if (
            self.skew_bound is not None
            and a.deadline is not None
            and b.deadline is not None
        ):
            gap = a.deadline - b.deadline
            if gap > self.skew_bound or -gap > self.skew_bound:
                self.stats.deadline_fastpath += 1
                return Ordering.BEFORE if gap < 0 else Ordering.AFTER
            self.stats.deadline_fallback += 1
            prefer = (
                Ordering.BEFORE
                if self._deadline_key(a) < self._deadline_key(b)
                else Ordering.AFTER
            )
        self.stats.reactive += 1
        return self._oracle.order(a, b, prefer)


QueueEntry = Optional[Tuple[VectorTimestamp, int]]


class EarliestScheduler:
    """A tournament tree selecting the earliest queue head under
    refinable order.

    Shard event loops pick the next transaction across one priority queue
    per gatekeeper (Fig 6).  Doing that with ``min()`` costs G-1 refinable
    comparisons per pop even though a pop replaces exactly one head; the
    tournament re-plays only the bracket path of queues whose head
    actually changed — ceil(log2 G) comparisons — and reuses every other
    bracket.

    Reuse is safe because every pairwise outcome is *stable*: vector-clock
    comparisons are pure functions, oracle decisions are irreversible and
    monotonic, and a timestamp's arrival number (the tiebreak preference
    for concurrent pairs) never changes once assigned.

    Entries are ``(timestamp, arrival)`` pairs, or ``None`` for an empty
    queue (an empty queue loses every bracket, which lets
    ``flush_all``-style drains share the tree).
    """

    def __init__(self, ordering: "RefinableOrdering", num_queues: int):
        if num_queues < 1:
            raise ValueError("need at least one queue")
        self._ordering = ordering
        self._n = num_queues
        size = 1
        while size < num_queues:
            size <<= 1
        self._size = size
        # _tree[node] = queue index winning that bracket (None = empty);
        # leaves live at [size, 2*size), internal nodes at [1, size).
        self._tree: List[Optional[int]] = [None] * (2 * size)
        self._entries: List[QueueEntry] = [None] * num_queues
        self._keys: List[Optional[Tuple]] = [None] * num_queues
        self._compares = 0

    def select(self, entries: Sequence[QueueEntry]) -> Optional[int]:
        """The queue index holding the earliest head, or None if all empty.

        ``entries[i]`` is ``(head timestamp, arrival order)`` for queue
        ``i``, or ``None`` when that queue is empty.  Only queues whose
        entry changed since the previous call are re-seeded into the
        bracket.
        """
        if len(entries) != self._n:
            raise ValueError(
                f"expected {self._n} queue entries, got {len(entries)}"
            )
        dirty = []
        for i, entry in enumerate(entries):
            key = None if entry is None else (entry[0].id, entry[1])
            if key != self._keys[i]:
                self._keys[i] = key
                self._entries[i] = entry
                dirty.append(i)
        if self._size == 1:
            return 0 if self._entries[0] is not None else None
        if dirty:
            self._replay(dirty)
        live = sum(1 for e in self._entries if e is not None)
        if live > 1:
            naive = live - 1  # what min() over the heads would cost
            if naive > self._compares:
                self._ordering.stats.heap_compares_saved += (
                    naive - self._compares
                )
        self._compares = 0
        return self._tree[1]

    def _replay(self, dirty: List[int]) -> None:
        # All leaves sit at one depth, so climbing level-synchronized
        # recomputes each affected bracket exactly once.
        nodes = {(self._size + i) >> 1 for i in dirty}
        while nodes:
            parents = set()
            for node in nodes:
                left = self._winner_of(2 * node)
                right = self._winner_of(2 * node + 1)
                if left is None:
                    winner = right
                elif right is None:
                    winner = left
                else:
                    winner = left if self._beats(left, right) else right
                self._tree[node] = winner
                if node > 1:
                    parents.add(node >> 1)
            nodes = parents

    def _winner_of(self, node: int) -> Optional[int]:
        if node >= self._size:
            queue = node - self._size
            if queue < self._n and self._entries[queue] is not None:
                return queue
            return None
        return self._tree[node]

    def _beats(self, i: int, j: int) -> bool:
        """True when queue ``i``'s head is ordered before queue ``j``'s.

        Concurrent heads are committed in arrival order (section 3.4's
        oracle preference), exactly as the linear scan this replaces did.
        """
        ts_i, arrival_i = self._entries[i]
        ts_j, arrival_j = self._entries[j]
        prefer = (
            Ordering.BEFORE if arrival_i <= arrival_j else Ordering.AFTER
        )
        self._compares += 1
        result = self._ordering.compare(ts_i, ts_j, prefer=prefer)
        if result is Ordering.BEFORE:
            return True
        if result is Ordering.AFTER:
            return False
        return i < j  # EQUAL cannot cross queues; keep min()'s tiebreak


def make_oracle(chain_length: int = 1):
    """Build a timeline oracle; a chain when ``chain_length`` > 1."""
    if chain_length <= 1:
        return TimelineOracle()
    return ReplicatedOracle(chain_length)
