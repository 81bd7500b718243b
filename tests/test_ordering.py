"""The refinable-ordering façade."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.oracle import TimelineOracle
from repro.core.ordering import RefinableOrdering
from repro.core.vclock import Ordering, VectorClock, VectorTimestamp


def ts(clocks, issuer=0, epoch=0):
    return VectorTimestamp(epoch, tuple(clocks), issuer)


A = ts([1, 0], issuer=0)
B = ts([0, 1], issuer=1)
C = ts([2, 0], issuer=0)


class TestRefinableOrdering:
    def test_vclock_comparable_is_proactive(self):
        ordering = RefinableOrdering(TimelineOracle())
        assert ordering.compare(A, C) is Ordering.BEFORE
        assert ordering.stats.proactive == 1
        assert ordering.stats.reactive == 0

    def test_concurrent_goes_reactive(self):
        ordering = RefinableOrdering(TimelineOracle())
        assert ordering.compare(A, B) is Ordering.BEFORE
        assert ordering.stats.reactive == 1

    def test_a_repeated_concurrent_compare_asks_the_oracle_again(self):
        # No shard-side decision cache: the oracle answers the repeat
        # from the order it already committed to.
        oracle = TimelineOracle()
        ordering = RefinableOrdering(oracle)
        first = ordering.compare(A, B)
        sent = oracle.stats.messages
        assert ordering.compare(A, B, prefer=Ordering.AFTER) is first
        assert oracle.stats.messages == sent + 1
        assert ordering.stats.reactive == 2

    def test_the_reverse_compare_is_the_decision_flipped(self):
        ordering = RefinableOrdering(TimelineOracle())
        assert ordering.compare(A, B) is Ordering.BEFORE
        assert ordering.compare(B, A) is Ordering.AFTER
        assert ordering.stats.reactive == 2

    def test_prefer_after(self):
        ordering = RefinableOrdering(TimelineOracle())
        assert ordering.compare(A, B, prefer=Ordering.AFTER) is Ordering.AFTER

    def test_two_shards_share_oracle_decisions(self):
        oracle = TimelineOracle()
        shard1 = RefinableOrdering(oracle)
        shard2 = RefinableOrdering(oracle)
        first = shard1.compare(A, B)
        second = shard2.compare(A, B, prefer=Ordering.AFTER)
        assert first is second  # the oracle's commitment wins

    def test_reactive_fraction(self):
        ordering = RefinableOrdering(TimelineOracle())
        ordering.compare(A, C)
        ordering.compare(A, B)
        assert ordering.stats.reactive_fraction == pytest.approx(0.5)

    def test_one_compare_moves_total_by_one(self):
        ordering = RefinableOrdering(TimelineOracle())
        ordering.compare(A, B)
        before = ordering.stats.total
        ordering.compare(A, C)
        assert ordering.stats.total - before == 1

    def test_earliest_single(self):
        ordering = RefinableOrdering(TimelineOracle())
        assert ordering.earliest([(A, 0)]) == 0

    def test_earliest_of_chain(self):
        # Vector clocks order every pair: no oracle request.
        ordering = RefinableOrdering(TimelineOracle())
        later = ts([3, 0])
        assert ordering.earliest([(later, 0), (C, 1), (A, 2)]) == 2
        assert ordering.stats.reactive == 0

    def test_earliest_concurrent_decides_and_sticks(self):
        oracle = TimelineOracle()
        ordering = RefinableOrdering(oracle)
        first = ordering.earliest([(A, 0), (B, 1)])
        # The arrivals now prefer B, but the decision already stands.
        again = ordering.earliest([(A, 1), (B, 0)])
        assert first == again == 0
        assert oracle.stats.decisions == 1

    def test_earliest_of_no_heads_is_none(self):
        ordering = RefinableOrdering(TimelineOracle())
        assert ordering.earliest([]) is None


@st.composite
def head_rounds(draw):
    """Rounds of queue heads over 2-6 queues, one gatekeeper's stamps
    per queue: each head is ``(stamp, arrival)`` or None (empty)."""
    n = draw(st.integers(2, 6))
    clocks = [VectorClock(n, i) for i in range(n)]
    issued = [[] for _ in range(n)]
    steps = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.none() | st.integers(0, n - 1)),
        min_size=1, max_size=24,
    ))
    for actor, peer in steps:
        if peer is not None:
            clocks[actor].observe(clocks[peer].announce())
        issued[actor].append(clocks[actor].tick())
    heads = [
        st.none() | st.tuples(st.sampled_from(stamps), st.integers(0, 3))
        if stamps else st.none()
        for stamps in issued
    ]
    return draw(st.lists(
        st.tuples(*heads).map(list), min_size=1, max_size=4
    ))


class TestEarliest:
    def _make(self):
        oracle = TimelineOracle()
        return oracle, RefinableOrdering(oracle)

    def test_single_queue(self):
        _, ordering = self._make()
        assert ordering.earliest([(A, 0)]) == 0
        assert ordering.earliest([None]) is None

    def test_picks_vclock_earliest(self):
        _, ordering = self._make()
        later = ts([3, 0])
        assert ordering.earliest([(later, 0), (A, 1)]) == 1

    def test_all_empty_returns_none(self):
        _, ordering = self._make()
        assert ordering.earliest([None, None, None]) is None

    def test_empty_queue_is_skipped(self):
        _, ordering = self._make()
        assert ordering.earliest([None, (A, 0), None]) == 1
        assert ordering.stats.total == 0

    def test_concurrent_heads_follow_arrival_order(self):
        _, ordering = self._make()
        assert ordering.earliest([(A, 5), (B, 2)]) == 1

    def test_equal_arrival_keeps_lower_queue(self):
        _, ordering = self._make()
        assert ordering.earliest([(B, 2), (A, 2)]) == 0

    def test_decision_sticks_across_calls(self):
        _, ordering = self._make()
        first = ordering.earliest([(A, 0), (B, 1)])
        again = ordering.earliest([(A, 0), (B, 1)])
        assert first == again

    def test_one_compare_per_live_head(self):
        _, ordering = self._make()
        heads = [(ts([1, 0, 0], issuer=0), 3), None,
                 (ts([0, 1, 0], issuer=1), 1),
                 (ts([0, 0, 1], issuer=2), 2)]
        assert ordering.earliest(heads) == 2
        assert ordering.stats.total == 2  # three live heads

    def test_a_repeated_pick_searches_nothing(self):
        # The scan re-asks every pair it decided last time; each is
        # answered by the edge the oracle committed, with no search.
        oracle, ordering = self._make()
        heads = [(ts([1, 0, 0], issuer=0), 3),
                 (ts([0, 1, 0], issuer=1), 1),
                 (ts([0, 0, 1], issuer=2), 2)]
        picked = ordering.earliest(heads)
        expansions = oracle.stats.bfs_expansions
        decisions = oracle.stats.decisions
        assert ordering.earliest(heads) == picked
        assert oracle.stats.bfs_expansions == expansions
        assert oracle.stats.decisions == decisions

    @settings(max_examples=150, deadline=None)
    @given(head_rounds())
    @example([[(A, 0)], [None], []])  # one queue, then none
    @example([[(ts([3, 0]), 0), (C, 1), (A, 2)]])  # the vector clocks decide
    @example([[(A, 5), (B, 2)], [(A, 0), (B, 1)]])  # arrival decides, once
    @example([[(A, 2), (B, 2)]])  # an equal arrival keeps the lower queue
    def test_pick_is_before_every_live_head(self, rounds):
        # One oracle across the rounds, so later rounds meet pairs that
        # earlier ones decided.
        oracle = TimelineOracle()
        ordering = RefinableOrdering(oracle)
        for number, heads in enumerate(rounds):
            live = [i for i, head in enumerate(heads) if head is not None]
            pick = ordering.earliest(heads)
            if not live:
                assert pick is None
                continue
            for i in live:
                if i != pick:
                    assert oracle.established_order(
                        heads[pick][0], heads[i][0]
                    ) is Ordering.BEFORE
            stamps = [heads[i][0] for i in live]
            if number == 0 and all(
                x.compare(y) is Ordering.CONCURRENT
                for x in stamps for y in stamps if x != y
            ):
                # Nothing decided yet: concurrent heads go in arrival
                # order, and an equal arrival keeps the lower index.
                assert pick == min(live, key=lambda i: (heads[i][1], i))


class TestFastpathCounters:
    def test_new_counters_start_zero(self):
        stats = RefinableOrdering(TimelineOracle()).stats
        assert stats.snapshot_memo_hits == 0

    def test_fastpath_counters_not_in_total(self):
        # total feeds reactive_fraction (Fig 9/14); avoided work must
        # not dilute it.
        ordering = RefinableOrdering(TimelineOracle())
        ordering.compare(A, C)
        ordering.stats.snapshot_memo_hits = 100
        assert ordering.stats.total == 1
