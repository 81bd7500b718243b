"""The cost models' machinery: servers, locks, closed loops, reports."""

import pytest

from repro.bench import harness
from repro.bench.costmodel import CostParams, LockTable
from repro.bench.report import format_series, format_table, ratio_check
from repro.sim.simulator import Server, Simulator
from repro.sim.workload import SimClients, finite_stream
from repro.workloads import bitcoin


class TestServerAt:
    """``Server.occupy(cost, at=)``: a cost model charging ahead of the
    simulator's clock."""

    def test_idle_serves_at_start(self):
        server = Server(Simulator())
        assert server.occupy(0.5, at=1.0) == 1.5

    def test_queueing(self):
        server = Server(Simulator())
        server.occupy(1.0, at=0.0)
        assert server.occupy(1.0, at=0.5) == 2.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            Server(Simulator()).occupy(-1, at=0.0)

    def test_utilization(self):
        server = Server(Simulator())
        server.occupy(1.0, at=0.0)
        assert server.utilization(4.0) == pytest.approx(0.25)

    def test_job_counter(self):
        server = Server(Simulator())
        server.occupy(1, at=0)
        server.occupy(1, at=0)
        assert server.jobs == 2

    def test_at_defaults_to_now(self):
        sim = Simulator()
        sim.run(until=2.0)
        assert Server(sim).occupy(0.5) == 2.5


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


class FixedLatency:
    """A system under :class:`SimClients` whose every op takes
    ``latency`` seconds, queued on ``server`` when one is given."""

    timer_period = 0.001

    def __init__(self, latency, with_server=False):
        self.simulator = Simulator()
        self.latency = latency
        self.server = Server(self.simulator) if with_server else None

    def submit(self, spec, callback):
        if self.server is not None:
            finish = self.server.occupy(self.latency)
        else:
            finish = self.simulator.now + self.latency
        self.simulator.schedule_at(finish, callback, True, spec)


def closed_loop(system, clients, ops):
    run = SimClients(system, clients, finite_stream(list(range(ops))))
    run.start()
    run.run_to_completion()
    return run


class TestSimClientsClosedLoop:
    def test_throughput_of_fixed_latency_op(self):
        run = closed_loop(FixedLatency(0.01), 4, 100)
        # 4 clients, 10 ms per op -> 400 ops/s.
        assert run.throughput == pytest.approx(400, rel=0.05)

    def test_latencies_recorded(self):
        run = closed_loop(FixedLatency(0.5), 1, 5)
        assert run.latencies.mean == pytest.approx(0.5)
        assert run.latencies.count == run.completed == 5
        assert run.results == {i: i for i in range(5)}

    def test_bottleneck_server_caps_throughput(self):
        run = closed_loop(FixedLatency(0.001, with_server=True), 16, 200)
        assert run.throughput == pytest.approx(1000, rel=0.05)

    def test_zero_clients_rejected(self):
        with pytest.raises(ValueError):
            SimClients(FixedLatency(0.01), 0, finite_stream([]))

    def test_finishing_before_the_start_rejected(self):
        run = SimClients(FixedLatency(-1), 1, finite_stream([0]))
        with pytest.raises(ValueError):
            run.start()


class TestCoinGraphTwin:
    def test_latency_grows_with_height(self):
        blocks = bitcoin.BlockchainGenerator(seed=7).generate(
            [100_000, 200_000]
        )
        twin = harness._coingraph(1, None, blocks)
        costs = CostParams()
        assert twin.costs.vertex_read_service == costs.coingraph_tx_service
        small, large = [
            harness._closed_loop(twin, 1, [harness._render(block)])
            .latencies.mean
            for block in blocks
        ]
        assert large > 5 * small
        # Every transaction is one demand page on the one shard.
        assert small > len(blocks[0].transactions) * (
            costs.coingraph_tx_service
        )


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
