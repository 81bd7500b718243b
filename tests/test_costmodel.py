"""The analytic cost model: resources, locks, closed loops, reports."""

import pytest

from repro.bench.costmodel import (
    ClosedLoop,
    CostParams,
    LockTable,
    Resource,
)
from repro.bench.models import CoinGraphModel
from repro.bench.report import format_series, format_table, ratio_check


class TestResource:
    def test_idle_serves_at_start(self):
        r = Resource()
        assert r.acquire(1.0, 0.5) == 1.5

    def test_queueing(self):
        r = Resource()
        r.acquire(0.0, 1.0)
        assert r.acquire(0.5, 1.0) == 2.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            Resource().acquire(0.0, -1)

    def test_utilization(self):
        r = Resource()
        r.acquire(0.0, 1.0)
        assert r.utilization(4.0) == pytest.approx(0.25)

    def test_job_counter(self):
        r = Resource()
        r.acquire(0, 1)
        r.acquire(0, 1)
        assert r.jobs == 2


class TestLockTable:
    def test_uncontended_grant_immediate(self):
        locks = LockTable()
        assert locks.lock("a", 1.0) == 1.0
        assert locks.contended == 0

    def test_contended_grant_waits(self):
        locks = LockTable()
        locks.hold_until("a", 2.0)
        assert locks.lock("a", 1.0) == 2.0
        assert locks.contended == 1

    def test_lock_all_sorted_and_max(self):
        locks = LockTable()
        locks.hold_until("b", 3.0)
        grant = locks.lock_all(["a", "b"], 1.0)
        assert grant == 3.0

    def test_hold_until_never_shrinks(self):
        locks = LockTable()
        locks.hold_until("a", 5.0)
        locks.hold_until("a", 2.0)
        assert locks.lock("a", 0.0) == 5.0

    def test_contention_rate(self):
        locks = LockTable()
        locks.hold_until("a", 1.0)
        locks.lock("a", 0.0)
        locks.lock("b", 0.0)
        assert locks.contention_rate == pytest.approx(0.5)


class TestClosedLoop:
    def test_throughput_of_fixed_latency_op(self):
        loop = ClosedLoop(4)
        run = loop.run(100, lambda c, i, start: start + 0.01)
        # 4 clients, 10 ms per op -> 400 ops/s.
        assert run.throughput == pytest.approx(400, rel=0.05)

    def test_latencies_recorded(self):
        run = ClosedLoop(1).run(5, lambda c, i, s: s + 0.5)
        assert run.mean_latency == pytest.approx(0.5)
        assert run.operations == 5

    def test_bottleneck_resource_caps_throughput(self):
        server = Resource()
        run = ClosedLoop(16).run(
            200, lambda c, i, s: server.acquire(s, 0.001)
        )
        assert run.throughput == pytest.approx(1000, rel=0.05)

    def test_zero_clients_rejected(self):
        with pytest.raises(ValueError):
            ClosedLoop(0)

    def test_time_travel_rejected(self):
        loop = ClosedLoop(1)
        with pytest.raises(ValueError):
            loop.run(1, lambda c, i, s: s - 1)


class TestCoinGraphModel:
    def test_latency_linear_in_txs(self):
        model = CoinGraphModel()
        small = model.block_query_latency(10)
        large = model.block_query_latency(100)
        assert large > 5 * small

    def test_block_query_occupies_shards(self):
        model = CoinGraphModel(num_shards=2)
        model.block_query(10, 0.0)
        model.block_query(10, 0.0)
        assert model.shards[0].jobs == 1
        assert model.shards[1].jobs == 1


class TestReport:
    def test_format_table_alignment(self):
        text = format_table("T", ["x", "yy"], [[1, 2.5], [10, 0.25]])
        assert "T" in text and "x" in text
        lines = text.splitlines()
        assert len({len(line) for line in lines[2:]}) == 1  # aligned

    def test_format_table_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table("T", ["a"], [[1, 2]])

    def test_format_series(self):
        text = format_series("cdf", [(0.1, 0.5), (0.2, 1.0)])
        assert text.startswith("cdf:")

    def test_ratio_check_ok(self):
        assert "[OK]" in ratio_check("x", 10.0, 10.9)

    def test_ratio_check_differs(self):
        assert "[DIFFERS]" in ratio_check("x", 1.0, 10.9)
