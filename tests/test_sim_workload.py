"""Closed-loop clients on the event-driven deployment, with service
costs: protocol-level performance."""

import pytest

from repro.bench.costmodel import CostParams
from repro.db import operations as ops
from repro.db.config import WeaverConfig
from repro.programs import GetNode
from repro.sim.clock import MSEC, USEC
from repro.sim.deployment import SimulatedWeaver
from repro.sim.workload import SimClients, finite_stream


def make(gks=2, shards=2, with_costs=True):
    return SimulatedWeaver(
        WeaverConfig(num_gatekeepers=gks, num_shards=shards),
        tau=200 * USEC,
        nop_period=200 * USEC,
        costs=CostParams() if with_costs else None,
    )


def preload(sw, names):
    done = []
    for name in names:
        sw.submit_transaction(
            [ops.CreateVertex(name)],
            callback=lambda ok, v: done.append(ok),
        )
    sw.run(50 * MSEC)
    assert all(done)


class TestSimClients:
    def test_finite_stream_completes_all_ops(self):
        sw = make()
        preload(sw, ["a"])
        stream = finite_stream(
            [("prog", GetNode(), "a", None)] * 12
        )
        clients = SimClients(sw, 3, stream)
        clients.start()
        clients.run_to_completion()
        assert clients.completed == 12
        assert len(clients.latencies) == 12

    def test_mixed_ops(self):
        sw = make()
        preload(sw, ["a"])
        specs = []
        for i in range(6):
            specs.append(("tx", [ops.CreateVertex(f"w{i}")]))
            specs.append(("prog", GetNode(), "a", None))
        clients = SimClients(sw, 2, finite_stream(specs))
        clients.start()
        clients.run_to_completion()
        assert clients.completed == 12
        assert clients.failed == 0

    def test_throughput_positive_and_latency_sensible(self):
        sw = make()
        preload(sw, ["a"])
        clients = SimClients(
            sw, 4, finite_stream([("prog", GetNode(), "a", None)] * 20)
        )
        clients.start()
        clients.run_to_completion()
        assert clients.throughput > 0
        # Program latency >= one NOP wait; well under a second.
        assert 0 < clients.latencies.mean < 0.1

    def test_zero_clients_rejected(self):
        sw = make()
        with pytest.raises(ValueError):
            SimClients(sw, 0, finite_stream([]))

    def test_unknown_spec_rejected(self):
        sw = make()
        clients = SimClients(sw, 1, finite_stream([("warp",)]))
        with pytest.raises(ValueError):
            clients.start()


class TestServiceCosts:
    def test_gatekeeper_service_time_delays_commits(self):
        fast = make(with_costs=False)
        preload_start = fast.simulator.now
        slow = make(with_costs=True)
        box_fast, box_slow = [], []
        fast.submit_transaction(
            [ops.CreateVertex("a")],
            callback=lambda ok, v: box_fast.append(fast.simulator.now),
        )
        slow.submit_transaction(
            [ops.CreateVertex("a")],
            callback=lambda ok, v: box_slow.append(slow.simulator.now),
        )
        fast.run(100 * MSEC)
        slow.run(100 * MSEC)
        assert box_slow[0] > box_fast[0]

    def test_more_gatekeepers_more_write_throughput(self):
        """Protocol-level scaling: the gatekeeper bank is the write
        bottleneck once service time is charged (the Fig 12 mechanism,
        straight from the protocol)."""

        def measure(gks):
            sw = make(gks=gks, shards=2)
            specs = [
                ("tx", [ops.CreateVertex(f"v{i}")])
                for i in range(120)
            ]
            clients = SimClients(sw, 16, finite_stream(specs))
            clients.start()
            clients.run_to_completion(max_sim_seconds=60)
            return clients.throughput

        one = measure(1)
        four = measure(4)
        assert four > 2 * one

    def test_program_reads_occupy_shards(self):
        sw = make()
        preload(sw, ["a"])
        clients = SimClients(
            sw, 2, finite_stream([("prog", GetNode(), "a", None)] * 6)
        )
        clients.start()
        clients.run_to_completion()
        shard = sw.mapping.lookup("a")
        assert sw._shard_servers[shard].jobs >= 6
