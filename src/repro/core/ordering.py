"""Refinable ordering façade: vector clocks first, oracle when needed.

This module packages the paper's two-stage ordering decision behind one
call.  Shard servers use a :class:`RefinableOrdering` instance to compare
any two transaction timestamps; the comparison is resolved proactively by
the vector clocks when possible and escalated to the timeline oracle only
for concurrent pairs (section 3.1).  The façade also keeps the statistics
that the coordination-overhead experiment (Fig 14) reports: how many
comparisons were settled proactively vs. reactively.

Section 4.2 lets a shard cache oracle decisions, which are irreversible.
No shard keeps one, and the shard's pick of the earliest queue head is
a plain scan that re-asks pairs: the oracle answers a repeated pair from
the edge it already committed to (ARCHITECTURE.md, "Ordering fast
path").
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .vclock import Ordering, VectorTimestamp

class OrderingStats:
    """Counts of how comparisons were resolved (and avoided entirely)."""

    def __init__(self) -> None:
        self.proactive = 0   # settled by vector clocks alone
        self.reactive = 0    # required an oracle round trip
        # Visibility checks answered by a per-snapshot dict, without
        # reaching compare() at all.
        self.snapshot_memo_hits = 0
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

    One instance per shard server.  ``oracle`` is anything with the
    :class:`~repro.core.oracle.TimelineOracle` ``order`` call: the oracle
    itself, a region's :class:`~repro.core.oracle.RegionOracleClient`, or
    the process deployment's ``OracleProxy``.
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

    def earliest(
        self, heads: Sequence[Optional[Tuple[VectorTimestamp, int]]]
    ) -> Optional[int]:
        """The index of the earliest queue head, or None if all are empty.

        ``heads[i]`` is ``(timestamp, arrival)`` for queue ``i``, or None
        when that queue is empty.  One scan, one compare per live head
        after the first (Fig 6): concurrent heads are committed in
        arrival order (section 3.4's oracle preference), and an equal
        arrival keeps the lower queue index.  A repeated pair costs the
        oracle one edge lookup, since its decisions are edges.
        """
        best = None
        for i, head in enumerate(heads):
            if head is None:
                continue
            if best is None:
                best = i
                continue
            best_ts, best_arrival = heads[best]
            prefer = (
                Ordering.BEFORE if best_arrival <= head[1]
                else Ordering.AFTER
            )
            if self.compare(best_ts, head[0], prefer) is Ordering.AFTER:
                best = i
        return best

