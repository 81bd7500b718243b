"""The observability layer: metrics registry, tracer, collectors."""

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    Tracer,
    assemble_chain,
    scalar_fields,
)
from repro.core.vclock import VectorTimestamp


def ts(clocks, issuer=0, epoch=0):
    return VectorTimestamp(epoch, tuple(clocks), issuer)


class TestHistogram:
    def test_count_sum_mean(self):
        h = Histogram("lat")
        for v in (0.001, 0.002, 0.003):
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(0.002)

    def test_quantiles_ordered(self):
        h = Histogram("lat")
        for i in range(1, 101):
            h.observe(i * 1e-4)
        assert h.quantile(0.50) <= h.quantile(0.95) <= h.quantile(0.99)
        assert h.quantile(1.0) == pytest.approx(h.max)

    def test_overflow_bucket(self):
        h = Histogram("lat", buckets=[1.0, 2.0])
        h.observe(100.0)  # past the last bound
        assert h.count == 1
        assert h.quantile(0.99) == pytest.approx(100.0)

    def test_empty_summary(self):
        s = Histogram("lat").summary()
        assert s["count"] == 0 and s["p99"] == 0.0 and s["max"] == 0.0

    def test_cdf_monotone(self):
        h = Histogram("lat")
        for i in range(50):
            h.observe((i + 1) * 1e-5)
        curve = h.cdf()
        fractions = [f for _, f in curve]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    def test_quantile_out_of_range_rejected(self):
        h = Histogram("lat")
        h.observe(1.0)
        # q is a fraction in [0, 1], not a percentile in [0, 100].
        for q in (-0.1, 1.5, 50):
            with pytest.raises(ValueError):
                h.quantile(q)

    def test_quantile_extremes_are_min_and_max(self):
        h = Histogram("lat")
        for v in (0.004, 0.001, 0.003, 0.002):
            h.observe(v)
        assert h.quantile(0.0) == pytest.approx(0.001)
        assert h.quantile(1.0) == pytest.approx(0.004)

    def test_empty_quantile_mean_and_cdf(self):
        h = Histogram("lat")
        assert h.quantile(0.5) == 0.0
        assert h.mean == 0.0
        assert h.cdf() == []

    def test_cdf_points_keeps_the_tail(self):
        h = Histogram("lat", buckets=[1.0, 2.0, 3.0, 4.0, 5.0])
        for v in (0.5, 1.5, 2.5, 3.5, 4.5):
            h.observe(v)
        curve = h.cdf(points=3)
        assert len(curve) == 3
        assert curve[-1] == (4.5, 1.0)

    def test_summary_counts_and_bounds(self):
        h = Histogram("lat")
        for v in (0.1, 0.2, 0.3):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3
        assert s["sum"] == pytest.approx(0.6)
        assert s["max"] == pytest.approx(0.3)
        assert s["p50"] <= s["p95"] <= s["p99"] <= s["max"]

    def test_buckets_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=[2.0, 1.0])

    def test_reset(self):
        h = Histogram("lat")
        h.observe(1.0)
        h.reset()
        assert h.count == 0 and h.summary()["max"] == 0.0


class _Stats:
    def __init__(self, hits=0, misses=0):
        self.hits = hits
        self.misses = misses
        self._private = 7
        self.label = "x"


class TestRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.histogram("a") is registry.histogram("a")

    def test_snapshot_sorted_and_flat(self):
        registry = MetricsRegistry()
        registry.register_collector(lambda: {"z.last": 1, "a.first": 2})
        registry.histogram("m.lat").observe(0.5)
        snap = registry.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["a.first"] == 2
        assert snap["m.lat.count"] == 1

    def test_collector_merged(self):
        registry = MetricsRegistry()
        registry.register_collector(lambda: {"ext.value": 9})
        assert registry.snapshot()["ext.value"] == 9

    def test_absorb_reads_public_numeric_fields_at_snapshot(self):
        registry = MetricsRegistry()
        stats = _Stats()
        registry.absorb("cache", lambda: stats)
        stats.hits += 3
        assert registry.snapshot() == {"cache.hits": 3, "cache.misses": 0}

    def test_absorb_sums_an_iterable_by_field(self):
        registry = MetricsRegistry()
        servers = [_Stats(1, 2), _Stats(10, 20)]
        registry.absorb("shard", lambda: servers)
        assert registry.snapshot() == {"shard.hits": 11, "shard.misses": 22}
        # The source is asked again at every snapshot: a replaced
        # server's counters go with it.
        servers.pop()
        assert registry.snapshot() == {"shard.hits": 1, "shard.misses": 2}


class TestScalarFields:
    def test_reads_numeric_public_attrs(self):
        class Stats:
            def __init__(self):
                self.b = 2
                self.a = 1
                self._hidden = 9
                self.name = "x"

        assert scalar_fields(Stats()) == {"a": 1, "b": 2}


class TestTracer:
    def test_emit_and_filter(self):
        tracer = Tracer()
        tid = tracer.next_trace_id()
        tracer.emit(tid, "client.submit", node="client")
        tracer.emit(tid, "store.commit", node="gk0")
        tracer.emit(None, "oracle.decide", node="oracle")
        assert [s.kind for s in tracer.spans(trace_id=tid)] == [
            "client.submit", "store.commit",
        ]
        assert len(tracer.spans(kind="oracle.decide")) == 1

    def test_attrs_sorted_and_accessible(self):
        tracer = Tracer()
        tracer.emit(1, "k", b=2, a=1)
        span = tracer.spans()[-1]
        assert span.attrs == (("a", 1), ("b", 2))
        assert span.attr("b") == 2
        assert span.attr("missing", "d") == "d"

    def test_ring_evicts_but_sinks_see_all(self):
        tracer = Tracer(capacity=4)
        seen = []
        tracer.add_sink(lambda s: seen.append(s.kind))
        for i in range(10):
            tracer.emit(1, f"k{i}")
        assert len(tracer) == 4
        assert len(seen) == 10

    def test_clock_supplies_timestamps(self):
        now = [0.5]
        tracer = Tracer(clock=lambda: now[0])
        tracer.emit(1, "k")
        assert tracer.spans()[-1].at == 0.5

    def test_without_clock_seq_is_time(self):
        tracer = Tracer()
        tracer.emit(1, "k")
        tracer.emit(1, "k")
        first, second = tracer.spans()
        assert second.at > first.at

    def test_counts(self):
        tracer = Tracer(capacity=1)
        assert tracer.next_trace_id() == 1
        tracer.emit(1, "k")
        tracer.emit_encoded(2, lambda: [(1, "k", "", {})] * 2)
        # Spans evicted from the ring still count.
        assert tracer.counts() == {"trace.spans": 3, "trace.traces": 1}

    def test_trace_ids_sorted_distinct(self):
        tracer = Tracer()
        tracer.emit(3, "k")
        tracer.emit(1, "k")
        tracer.emit(3, "k")
        assert tracer.trace_ids() == [1, 3]


class TestAssembleChain:
    def test_decisions_joined_by_event_id(self):
        tracer = Tracer()
        a, b = ts([1, 0], issuer=0), ts([0, 1], issuer=1)
        tracer.emit(7, "gatekeeper.stamp", node="gk0", ts=a)
        tracer.emit(None, "oracle.decide", node="oracle", a=a.id, b=b.id)
        tracer.emit(None, "oracle.decide", node="oracle",
                    a=(9, 9, 9), b=(9, 9, 8))  # unrelated decision
        chain = assemble_chain(tracer, 7)
        assert [s.kind for s in chain] == [
            "gatekeeper.stamp", "oracle.decide",
        ]

    def test_sorted_by_time_then_seq(self):
        tracer = Tracer(clock=lambda: 1.0)
        tracer.emit(5, "a")
        tracer.emit(5, "b")
        first, second = tracer.spans()
        chain = assemble_chain(tracer, 5)
        assert chain == [first, second]
