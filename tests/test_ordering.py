"""The refinable-ordering façade and the shard-side decision cache."""

import pytest

from repro.core.oracle import TimelineOracle
from repro.core.ordering import (
    EarliestScheduler,
    OrderingCache,
    RefinableOrdering,
    cache_metrics,
    make_oracle,
)
from repro.core.vclock import Ordering, VectorTimestamp

from .oracle_reference import earliest


def ts(clocks, issuer=0, epoch=0):
    return VectorTimestamp(epoch, tuple(clocks), issuer)


A = ts([1, 0], issuer=0)
B = ts([0, 1], issuer=1)
C = ts([2, 0], issuer=0)


class TestOrderingCache:
    def test_miss_then_hit(self):
        cache = OrderingCache()
        assert cache.get(A, B) is None
        cache.put(A, B, Ordering.BEFORE)
        assert cache.get(A, B) is Ordering.BEFORE

    def test_reverse_direction_hits_flipped(self):
        cache = OrderingCache()
        cache.put(A, B, Ordering.BEFORE)
        assert cache.get(B, A) is Ordering.AFTER

    def test_hit_miss_counters(self):
        cache = OrderingCache()
        cache.get(A, B)
        cache.put(A, B, Ordering.BEFORE)
        cache.get(A, B)
        assert cache.hits == 1 and cache.misses == 1

    def test_len(self):
        cache = OrderingCache()
        cache.put(A, B, Ordering.BEFORE)
        cache.put(A, C, Ordering.BEFORE)
        assert len(cache) == 2

    def test_clear(self):
        cache = OrderingCache()
        cache.put(A, B, Ordering.BEFORE)
        cache.clear()
        assert cache.get(A, B) is None


class TestCacheMetrics:
    def test_fresh_orderings_report_zero(self):
        orderings = [RefinableOrdering(TimelineOracle()) for _ in range(2)]
        assert cache_metrics(orderings) == {
            "ordering.cache_hits": 0,
            "ordering.cache_misses": 0,
            "ordering.cache_entries": 0,
        }

    def test_sums_every_shards_cache(self):
        oracle = TimelineOracle()
        first, second = RefinableOrdering(oracle), RefinableOrdering(oracle)
        first.compare(A, B)
        first.compare(A, B)
        second.compare(A, B)
        assert cache_metrics([first, second]) == {
            "ordering.cache_hits": 1,
            "ordering.cache_misses": 2,
            "ordering.cache_entries": 2,
        }


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

    def test_repeat_concurrent_hits_cache(self):
        ordering = RefinableOrdering(TimelineOracle())
        ordering.compare(A, B)
        ordering.compare(A, B)
        assert ordering.stats.cached == 1
        assert ordering.stats.reactive == 1

    def test_every_ordering_starts_with_an_empty_cache(self):
        ordering = RefinableOrdering(TimelineOracle())
        assert isinstance(ordering.cache, OrderingCache)
        assert len(ordering.cache) == 0

    def test_a_cached_compare_sends_the_oracle_nothing(self):
        oracle = TimelineOracle()
        ordering = RefinableOrdering(oracle)
        ordering.compare(A, B)
        sent = oracle.stats.messages
        ordering.compare(A, B)
        assert oracle.stats.messages == sent

    def test_the_reverse_compare_hits_the_cache_flipped(self):
        ordering = RefinableOrdering(TimelineOracle())
        assert ordering.compare(A, B) is Ordering.BEFORE
        assert ordering.compare(B, A) is Ordering.AFTER
        assert ordering.stats.cached == 1
        assert ordering.stats.reactive == 1

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


class TestEvictBelow:
    def test_evicts_older_epoch_pairs(self):
        cache = OrderingCache()
        old_a = ts([1, 0], issuer=0, epoch=0)
        old_b = ts([0, 1], issuer=1, epoch=0)
        cache.put(old_a, old_b, Ordering.BEFORE)
        watermark = ts([0, 0], issuer=0, epoch=1)
        assert cache.evict_below(watermark) == 1
        assert len(cache) == 0

    def test_evicts_within_epoch_when_watermark_covers_both(self):
        # The seed compared epochs only, so same-epoch entries lived
        # forever; the per-issuer counter check reclaims them.
        cache = OrderingCache()
        cache.put(A, B, Ordering.BEFORE)  # ids (0,0,1) and (0,1,1)
        watermark = ts([5, 5], issuer=0, epoch=0)
        assert cache.evict_below(watermark) == 1
        assert len(cache) == 0

    def test_keeps_pairs_with_one_live_event(self):
        cache = OrderingCache()
        live = ts([9, 0], issuer=0)  # counter 9 > watermark's 5
        cache.put(A, B, Ordering.BEFORE)
        cache.put(live, B, Ordering.AFTER)
        watermark = ts([5, 5], issuer=1, epoch=0)
        assert cache.evict_below(watermark) == 1
        assert cache.get(live, B) is Ordering.AFTER

    def test_boundary_counter_is_evicted(self):
        # counter == watermark component counts as dominated (<=): the
        # watermark itself is the oldest in-flight stamp.
        cache = OrderingCache()
        cache.put(A, B, Ordering.BEFORE)
        watermark = ts([1, 1], issuer=0, epoch=0)
        assert cache.evict_below(watermark) == 1


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
