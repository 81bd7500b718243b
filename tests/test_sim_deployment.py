"""The event-driven simulated deployment: the protocol on real timers."""

import pytest

from repro.db import operations as ops
from repro.db.config import WeaverConfig
from repro.db.database import Weaver, WritePath
from repro.programs import Bfs, GetEdges, GetNode, Reachability, params
from repro.sim.clock import MSEC, USEC
from repro.sim.deployment import SimulatedWeaver
from repro.sim.faults import FaultPlan


def make(tau=200 * USEC, nop_period=100 * USEC, gks=2, shards=2):
    return SimulatedWeaver(
        WeaverConfig(num_gatekeepers=gks, num_shards=shards),
        tau=tau,
        nop_period=nop_period,
    )


def commit(sw, operations):
    outcome = {}
    sw.submit_transaction(
        operations,
        callback=lambda ok, value: outcome.update(ok=ok, value=value),
    )
    sw.run(2 * MSEC)
    return outcome


def ask(sw, program, start, prog_params=None):
    box = {}
    sw.submit_program(
        program, start, prog_params, callback=lambda r: box.update(r=r)
    )
    sw.run(5 * MSEC)
    return box.get("r")


class TestTransactions:
    def test_commit_through_network(self):
        sw = make()
        outcome = commit(sw, [ops.CreateVertex("a")])
        assert outcome["ok"]
        assert sw.committed == 1
        assert sw.store.exists("v:a")

    def test_invalid_transaction_aborts(self):
        sw = make()
        commit(sw, [ops.CreateVertex("a")])
        outcome = commit(sw, [ops.CreateVertex("a")])
        assert not outcome["ok"]
        assert sw.aborted == 1

    def test_writes_reach_shards_in_memory(self):
        sw = make()
        commit(sw, [ops.CreateVertex("a")])
        sw.run(2 * MSEC)
        shard = sw.shards[sw.mapping.lookup("a")]
        assert "a" in shard.graph


class TestPrograms:
    def test_program_sees_committed_write(self):
        sw = make()
        commit(
            sw,
            [
                ops.CreateVertex("a"),
                ops.CreateVertex("b"),
                ops.CreateEdge("e", "a", "b"),
            ],
        )
        result = ask(sw, Reachability(), "a", params(target="b"))
        assert result.results == [True]

    def test_program_latency_bounded_by_timers(self):
        # The section 4.2 bound: a program waits at most ~tau (for the
        # issuing gatekeeper's announce) + a NOP period + network hops.
        tau, nop = 200 * USEC, 100 * USEC
        sw = make(tau=tau, nop_period=nop)
        commit(sw, [ops.CreateVertex("a")])
        ask(sw, GetNode(), "a")
        assert sw.latency_program.count == 1
        bound = tau + 2 * nop + 6 * 100 * USEC  # generous hop budget
        assert sw.latency_program.max <= bound

    def test_multi_hop_traversal(self):
        sw = make()
        commit(
            sw,
            [
                ops.CreateVertex("a"),
                ops.CreateVertex("b"),
                ops.CreateVertex("c"),
                ops.CreateEdge("ab", "a", "b"),
                ops.CreateEdge("bc", "b", "c"),
            ],
        )
        result = ask(sw, Bfs(), "a", params(depth=0))
        assert result.results == ["a", "b", "c"]

    def test_program_waits_for_concurrent_write(self):
        # Submit a write and a program back-to-back: the program's
        # snapshot must include the write (it committed first).
        sw = make()
        commit(sw, [ops.CreateVertex("a")])
        box = {}
        sw.submit_transaction(
            [ops.SetVertexProperty("a", "k", 42)],
            callback=lambda ok, v: None,
        )
        sw.submit_program(
            GetNode(), "a", None, callback=lambda r: box.update(r=r)
        )
        sw.run(5 * MSEC)
        assert box["r"].value["properties"] == {"k": 42}


class TestTimers:
    def test_announces_flow(self):
        sw = make()
        sw.run(2 * MSEC)
        assert sw.announce_messages() > 0

    def test_nops_flow(self):
        sw = make()
        sw.run(2 * MSEC)
        assert sw.nop_messages() > 0

    def test_heartbeats_keep_servers_alive(self):
        sw = make()
        sw.run(0.5)
        assert sw.manager.detect_failures(sw.simulator.now) == []

    def test_smaller_tau_means_fewer_oracle_messages(self):
        # The Fig 14 tradeoff emerging from real timers: with announces
        # much faster than NOPs, heartbeat stamps order proactively; with
        # slow announces they stay concurrent and hit the oracle.
        def oracle_traffic(tau):
            sw = make(tau=tau, nop_period=200 * USEC)
            commit(sw, [ops.CreateVertex("a")])
            ask(sw, GetNode(), "a")
            sw.run(5 * MSEC)
            return sw.oracle_messages()

        fast = oracle_traffic(50 * USEC)
        slow = oracle_traffic(2 * MSEC)
        assert fast < slow

    def test_fifo_channels_hold_under_load(self):
        sw = make()
        for i in range(10):
            sw.submit_transaction([ops.CreateVertex(f"v{i}")])
        sw.run(10 * MSEC)
        assert sw.committed == 10
        assert all(
            shard.stats.out_of_order_rejected == 0 for shard in sw.shards
        )


# One script: creates across both gatekeepers (submissions alternate),
# property writes, edges, a delete.
SCRIPT = [
    [ops.CreateVertex("ann"), ops.CreateVertex("bob"),
     ops.CreateVertex("cat")],
    [ops.CreateVertex("dan"), ops.SetVertexProperty("dan", "k", 1)],
    [ops.SetVertexProperty("ann", "color", "red"),
     ops.CreateEdge("ab", "ann", "bob")],
    [ops.CreateEdge("bc", "bob", "cat"),
     ops.SetEdgeProperty("bob", "bc", "weight", 3)],
    [ops.CreateEdge("ad", "ann", "dan"), ops.CreateVertex("eve")],
    [ops.DeleteEdge("ann", "ad"), ops.DeleteVertex("dan")],
]
SCRIPT_VERTICES = ("ann", "bob", "cat", "eve")


def observed(db, answers):
    """What a deployment holds after SCRIPT, in comparable form."""
    return {
        "mapping": sorted(db.mapping.items()),
        "store": ops.graph_state_from_store(db.store.snapshot()),
        "answers": answers,
        # Which gatekeeper's channel fed each shard, in arrival order.
        # Raw seqnos differ by design: the sim's timer NOPs share the
        # channels with the transactions.
        "channels": [
            [
                span.attr("gk")
                for span in db.tracer.spans(kind="shard.enqueue")
                if span.attr("shard") == index
            ]
            for index in range(db.config.num_shards)
        ],
    }


class TestOneWritePath:
    """The sim is held to the coordinator, not to itself."""

    @pytest.mark.parametrize("partitioner", ["round_robin", "hash"])
    def test_same_script_same_state_as_weaver(self, partitioner):
        def config():
            return WeaverConfig(
                num_gatekeepers=2, num_shards=2, partitioner=partitioner
            )

        db = Weaver(config())
        for operations in SCRIPT:
            tx = db.begin_transaction()
            for op in operations:
                tx.record(op)
            tx.commit()
        direct = observed(db, [
            db.run_program(program, v).results
            for v in SCRIPT_VERTICES for program in (GetNode(), GetEdges())
        ])

        sw = SimulatedWeaver(config(), tau=200 * USEC, nop_period=100 * USEC)
        for operations in SCRIPT:
            assert commit(sw, operations)["ok"]
        simulated = observed(sw, [
            ask(sw, program, v).results
            for v in SCRIPT_VERTICES for program in (GetNode(), GetEdges())
        ])

        assert simulated == direct
        assert len({shard for _, shard in direct["mapping"]}) == 2
        assert all(direct["channels"])

    def test_inherits_nothing_it_cannot_run(self):
        sw = make()
        for blocking in ("drain", "checkpoint", "begin_transaction",
                         "collect_garbage", "_make_shards_ready"):
            assert not hasattr(sw, blocking)
        for inherited in ("_commit_transaction", "_enqueue",
                          "_forward_to_shards", "_place_new_vertices"):
            assert inherited not in vars(SimulatedWeaver)
            assert inherited in vars(WritePath)

    def test_bare_create_commits_and_is_readable(self):
        sw = make()
        assert commit(sw, [ops.CreateVertex("a")])["ok"]
        assert ask(sw, GetNode(), "a").value["handle"] == "a"

    def test_create_with_writes_places_once(self):
        sw = make()
        assert commit(sw, [
            ops.CreateVertex("a"),
            ops.SetVertexProperty("a", "k", 1),
            ops.SetVertexProperty("a", "k", 2),
        ])["ok"]
        assert sw.mapping.load() == {0: 1, 1: 0}
        assert commit(sw, [ops.CreateVertex("b")])["ok"]
        assert sw.mapping.lookup("b") == 1  # the next slot, not the third

    def test_aborted_create_burns_no_placement_slot(self):
        # Every submission arrives twice; the copy aborts ("vertex
        # exists") and must not advance the round-robin cursor.
        plan = FaultPlan(seed=1).duplicate(
            1.0, kinds=frozenset({"tx-submit"})
        )
        sw = SimulatedWeaver(
            WeaverConfig(num_gatekeepers=2, num_shards=2),
            tau=200 * USEC, nop_period=100 * USEC, fault_plan=plan,
        )
        for i in range(4):
            sw.submit_transaction([ops.CreateVertex(f"v{i}")])
            sw.run(2 * MSEC)
        assert (sw.committed, sw.aborted) == (4, 4)
        assert sw.mapping.load() == {0: 2, 1: 2}
