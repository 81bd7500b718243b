"""The refinable-ordering façade."""

import pytest

from repro.core.oracle import TimelineOracle
from repro.core.ordering import (
    EarliestScheduler,
    RefinableOrdering,
    make_oracle,
)
from repro.core.vclock import Ordering, VectorTimestamp

from .oracle_reference import earliest


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
        assert earliest(ordering, [A]) is A

    def test_earliest_of_chain(self):
        ordering = RefinableOrdering(TimelineOracle())
        later = ts([3, 0])
        assert earliest(ordering, [later, C, A]) is A

    def test_earliest_concurrent_decides_and_sticks(self):
        ordering = RefinableOrdering(TimelineOracle())
        first = earliest(ordering, [A, B])
        again = earliest(ordering, [A, B])
        assert first is again

    def test_earliest_empty_raises(self):
        ordering = RefinableOrdering(TimelineOracle())
        with pytest.raises(ValueError):
            earliest(ordering, [])


class TestMakeOracle:
    def test_single(self):
        assert isinstance(make_oracle(1), TimelineOracle)

    def test_chain(self):
        oracle = make_oracle(3)
        assert oracle.chain_length == 3


class TestEarliestScheduler:
    def _make(self, num_queues=2):
        ordering = RefinableOrdering(TimelineOracle())
        return ordering, EarliestScheduler(ordering, num_queues)

    def test_single_queue(self):
        _, sched = self._make(1)
        assert sched.select([(A, 0)]) == 0
        assert sched.select([None]) is None

    def test_picks_vclock_earliest(self):
        _, sched = self._make(2)
        later = ts([3, 0])
        assert sched.select([(later, 0), (A, 1)]) == 1

    def test_all_empty_returns_none(self):
        _, sched = self._make(3)
        assert sched.select([None, None, None]) is None

    def test_empty_queue_loses_bracket(self):
        _, sched = self._make(3)
        assert sched.select([None, (A, 0), None]) == 1

    def test_concurrent_heads_follow_arrival_order(self):
        _, sched = self._make(2)
        assert sched.select([(A, 5), (B, 2)]) == 1

    def test_decision_sticks_across_calls(self):
        ordering, sched = self._make(2)
        first = sched.select([(A, 0), (B, 1)])
        again = sched.select([(A, 0), (B, 1)])
        assert first == again

    def test_matches_linear_earliest(self):
        # The tournament must agree with the seed's min() scan on a
        # shared oracle, whatever the mix of ordered/concurrent heads.
        oracle = TimelineOracle()
        ordering = RefinableOrdering(oracle)
        sched = EarliestScheduler(ordering, 3)
        heads = [(ts([2, 0, 0], issuer=0), 3),
                 (ts([0, 1, 0], issuer=1), 1),
                 (ts([0, 0, 1], issuer=2), 2)]
        picked = sched.select(heads)
        linear = earliest(ordering, [h[0] for h in heads])
        assert heads[picked][0] is linear

    def test_unchanged_heads_save_compares(self):
        ordering, sched = self._make(4)
        entries = [(ts([1, 0, 0, 0], issuer=0), 0),
                   (ts([0, 1, 0, 0], issuer=1), 1),
                   (ts([0, 0, 1, 0], issuer=2), 2),
                   (ts([0, 0, 0, 1], issuer=3), 3)]
        sched.select(entries)
        saved_before = ordering.stats.heap_compares_saved
        sched.select(entries)  # nothing changed: zero compares needed
        assert ordering.stats.heap_compares_saved > saved_before

    def test_replacing_one_head_replays_one_path(self):
        ordering, sched = self._make(4)
        entries = [(ts([1, 0, 0, 0], issuer=0), 0),
                   (ts([0, 1, 0, 0], issuer=1), 1),
                   (ts([0, 0, 1, 0], issuer=2), 2),
                   (ts([0, 0, 0, 1], issuer=3), 3)]
        assert sched.select(entries) == 0
        entries[0] = (ts([9, 0, 0, 0], issuer=0), 9)
        picked = sched.select(entries)
        assert picked != 0  # the new head is no longer earliest

    def test_wrong_entry_count_raises(self):
        _, sched = self._make(2)
        with pytest.raises(ValueError):
            sched.select([(A, 0)])

    def test_zero_queues_rejected(self):
        ordering = RefinableOrdering(TimelineOracle())
        with pytest.raises(ValueError):
            EarliestScheduler(ordering, 0)


class TestFastpathCounters:
    def test_new_counters_start_zero(self):
        stats = RefinableOrdering(TimelineOracle()).stats
        assert stats.snapshot_memo_hits == 0
        assert stats.heap_compares_saved == 0

    def test_fastpath_counters_not_in_total(self):
        # total feeds reactive_fraction (Fig 9/14); avoided work must
        # not dilute it.
        ordering = RefinableOrdering(TimelineOracle())
        ordering.compare(A, C)
        ordering.stats.snapshot_memo_hits = 100
        ordering.stats.heap_compares_saved = 100
        assert ordering.stats.total == 1
