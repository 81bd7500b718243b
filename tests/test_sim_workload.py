"""Closed-loop clients on the event-driven deployment, with service
costs: protocol-level performance."""

import pytest

from repro.bench.costmodel import CostParams
from repro.db import operations as ops
from repro.db.config import WeaverConfig
from repro.programs import GetNode
from repro.programs.library import ClusteringCoefficient, params
from repro.sim.clock import MSEC, USEC
from repro.sim.deployment import SimulatedWeaver
from repro.sim.workload import SimClients, finite_stream


def make(gks=2, shards=2, with_costs=True, store_nodes=4, **costs):
    return SimulatedWeaver(
        WeaverConfig(num_gatekeepers=gks, num_shards=shards),
        costs=(
            CostParams(store_nodes=store_nodes, **costs)
            if with_costs else None
        ),
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
        assert clients.latencies.count == 12
        assert all(
            clients.results[i].value["handle"] == "a" for i in range(12)
        )

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

    def test_store_nodes_set_write_throughput(self):
        """The durable commit occupies one node of the backing store's
        bank, not the gatekeeper (section 4.2): one node caps writes at
        1 / ``store_commit_service``, four lift the cap fourfold."""

        def measure(store_nodes):
            sw = make(store_nodes=store_nodes)
            specs = [
                ("tx", [ops.CreateVertex(f"v{i}")]) for i in range(60)
            ]
            clients = SimClients(sw, 16, finite_stream(specs))
            clients.start()
            clients.run_to_completion()
            assert clients.completed == 60
            return clients.throughput

        one = measure(1)
        four = measure(4)
        assert one < 1.05 / CostParams().store_commit_service
        assert four > 3 * one

    def test_reads_do_not_queue_behind_store_commits(self):
        """A gatekeeper is free once it has stamped: beside 16 writers,
        get_node throughput holds when commits queue 10x longer at the
        store."""

        def reads_per_second(store_commit_service):
            sw = make(store_commit_service=store_commit_service)
            preload(sw, ["a"])
            SimClients(sw, 16, finite_stream([
                ("tx", [ops.CreateVertex(f"w{i}")]) for i in range(400)
            ])).start()
            reads = SimClients(sw, 8, finite_stream(
                [("prog", GetNode(), "a", None)] * 200
            ))
            reads.start()
            reads.run_to_completion()
            assert reads.completed == 200
            return reads.throughput

        base = CostParams().store_commit_service
        assert reads_per_second(10 * base) >= 0.9 * reads_per_second(base)

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


def drive(sw, specs, clients=1):
    run = SimClients(sw, clients, finite_stream(specs))
    run.start()
    run.run_to_completion()
    assert run.completed == len(specs)
    return run


class TestCostAccounting:
    """Which server each request occupies on the costed twin, and for
    how long: the charges the figures' Weaver series are made of."""

    def test_read_hits_gatekeeper_and_shard(self):
        sw = make(gks=1, shards=1)
        preload(sw, ["a"])
        gk, shard = sw._gk_servers[0].jobs, sw._shard_servers[0].jobs
        drive(sw, [("prog", GetNode(), "a", None)])
        assert sw._gk_servers[0].jobs == gk + 1
        assert sw._shard_servers[0].jobs > shard

    def test_read_never_touches_the_store(self):
        sw = make()
        preload(sw, ["a"])
        commits = [s.jobs for s in sw._store_servers]
        drive(sw, [("prog", GetNode(), "a", None)] * 4)
        assert [s.jobs for s in sw._store_servers] == commits

    def test_write_hits_store_once(self):
        sw = make()
        drive(sw, [("tx", [ops.CreateVertex("a"), ops.CreateVertex("b")])])
        assert sum(s.jobs for s in sw._store_servers) == 1

    def test_store_commits_round_robin(self):
        sw = make(store_nodes=4)
        drive(sw, [
            ("tx", [ops.CreateVertex(f"v{i}")]) for i in range(8)
        ], clients=8)
        assert [s.jobs for s in sw._store_servers] == [2, 2, 2, 2]

    def test_gatekeepers_round_robin(self):
        sw = make(gks=2)
        preload(sw, ["a"])
        before = [s.jobs for s in sw._gk_servers]
        drive(sw, [("prog", GetNode(), "a", None)] * 2)
        assert [s.jobs - b for s, b in zip(sw._gk_servers, before)] == [1, 1]

    def test_write_latency_dominated_by_store_commit(self):
        sw = make()
        drive(sw, [("tx", [ops.CreateVertex("a")])])
        assert sw.latency_tx.min >= CostParams().store_commit_service

    def test_reads_cheaper_than_writes(self):
        sw = make()
        preload(sw, ["a"])
        sw.latency_tx.reset()
        drive(sw, [
            ("tx", [ops.CreateVertex("b")]), ("prog", GetNode(), "a", None)
        ])
        assert sw.latency_program.max < sw.latency_tx.min

    def test_multi_shard_read_parallelizes(self):
        """A fan-out's vertex reads split across the shards holding the
        neighbours: the busiest shard does a fraction of one shard's
        work, and the program finishes sooner."""

        def fan_out(shards):
            sw = SimulatedWeaver(
                WeaverConfig(num_gatekeepers=1, num_shards=shards),
                costs=CostParams(vertex_read_service=20 * USEC),
            )
            leaves = [f"l{i}" for i in range(64)]
            drive(sw, [
                ("tx", [ops.CreateVertex(v) for v in ["c"] + leaves]),
                ("tx", [
                    ops.CreateEdge(f"e{i}", "c", v)
                    for i, v in enumerate(leaves)
                ]),
            ])
            before = [s.busy_time for s in sw._shard_servers]
            run = drive(sw, [(
                "prog", ClusteringCoefficient(), "c", params(phase="center")
            )])
            assert run.results[0].results[0] == ("k", 64)
            busiest = max(
                s.busy_time - b for s, b in zip(sw._shard_servers, before)
            )
            return busiest, run.latencies.mean

        serial_busy, serial_latency = fan_out(1)
        parallel_busy, parallel_latency = fan_out(4)
        assert parallel_busy < serial_busy / 2
        assert parallel_latency < serial_latency

    def test_nothing_charged_without_costs(self):
        sw = make(with_costs=False)
        preload(sw, ["a"])
        drive(sw, [("prog", GetNode(), "a", None)] * 3)
        assert sw._store_servers == []
        assert all(
            s.jobs == 0 for s in sw._gk_servers + sw._shard_servers
        )
