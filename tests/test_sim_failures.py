"""Live failure injection on the event-driven deployment (section 4.3).

Crashes are silent: the server's heartbeats stop, the cluster manager's
failure detector notices after the timeout, and recovery — epoch bump,
barrier, reload from the backing store — runs on simulated time.
"""

import pytest

from repro.db import operations as ops
from repro.db.config import WeaverConfig
from repro.errors import ProgramError
from repro.programs import Bfs, BlockRender, GetNode, Reachability, params
from repro.sim.clock import MSEC, USEC
from repro.sim.deployment import SimulatedWeaver
from repro.sim.faults import FaultPlan


def make():
    return SimulatedWeaver(
        WeaverConfig(num_gatekeepers=2, num_shards=2),
        tau=200 * USEC,
        nop_period=100 * USEC,
        heartbeat_period=5 * MSEC,
    )


def commit(sw, operations):
    box = {}
    sw.submit_transaction(
        operations,
        callback=lambda ok, v: box.update(ok=ok, value=v),
    )
    sw.run(2 * MSEC)
    return box


def ask(sw, program, start, prog_params=None, wait=10 * MSEC):
    box = {}
    sw.submit_program(
        program, start, prog_params, callback=lambda r: box.update(r=r)
    )
    sw.run(wait)
    return box.get("r")


def populate(sw):
    commit(
        sw,
        [
            ops.CreateVertex("a"),
            ops.CreateVertex("b"),
            ops.CreateEdge("e", "a", "b"),
            ops.SetVertexProperty("a", "k", 1),
        ],
    )


class TestShardCrash:
    def test_detector_recovers_crashed_shard(self):
        sw = make()
        populate(sw)
        sw.crash_shard(0)
        # Long enough for heartbeats to lapse and the detector to act.
        sw.run(60 * MSEC)
        assert sw.recoveries == 1
        assert sw.manager.epoch >= 1

    def test_data_survives_shard_crash(self):
        sw = make()
        populate(sw)
        sw.crash_shard(sw.mapping.lookup("a"))
        sw.run(60 * MSEC)
        result = ask(sw, GetNode(), "a", wait=20 * MSEC)
        assert result is not None
        assert result.value["properties"] == {"k": 1}

    def test_traversal_after_crash(self):
        sw = make()
        populate(sw)
        sw.crash_shard(0)
        sw.run(60 * MSEC)
        result = ask(
            sw, Reachability(), "a", params(target="b"), wait=20 * MSEC
        )
        assert result is not None and result.results == [True]

    def test_program_waits_out_the_crash(self):
        """A program submitted while a shard is down completes after
        recovery rather than reading a partial world."""
        sw = make()
        populate(sw)
        sw.crash_shard(0)
        box = {}
        sw.submit_program(
            GetNode(), "a", None, callback=lambda r: box.update(r=r)
        )
        sw.run(10 * MSEC)      # shard still dead: no answer yet
        assert "r" not in box
        sw.run(80 * MSEC)      # detector fires, recovery runs
        assert "r" in box
        # The program was re-stamped post-recovery (section 4.3), so its
        # snapshot includes the reloaded state — not an empty world.
        assert box["r"].value["properties"] == {"k": 1}

    def test_writes_after_recovery_apply(self):
        sw = make()
        populate(sw)
        sw.crash_shard(0)
        sw.run(60 * MSEC)
        outcome = commit(sw, [ops.SetVertexProperty("a", "k", 2)])
        assert outcome["ok"]
        sw.run(5 * MSEC)
        result = ask(sw, GetNode(), "a", wait=20 * MSEC)
        assert result.value["properties"]["k"] == 2


class TestGatekeeperCrash:
    def test_detector_recovers_crashed_gatekeeper(self):
        sw = make()
        populate(sw)
        sw.crash_gatekeeper(1)
        sw.run(60 * MSEC)
        assert sw.recoveries == 1
        # The replacement's clock restarted in a higher epoch.
        assert sw.gatekeepers[1].clock.epoch >= 1

    def test_commits_continue_after_gatekeeper_recovery(self):
        sw = make()
        populate(sw)
        sw.crash_gatekeeper(0)
        sw.run(60 * MSEC)
        outcomes = [
            commit(sw, [ops.CreateVertex(f"post{i}")])
            for i in range(4)
        ]
        # Requests routed to the dead server before recovery die; the
        # system as a whole keeps committing.
        assert any(o.get("ok") for o in outcomes)
        result = ask(sw, GetNode(), "post3", wait=20 * MSEC)
        if result is not None and result.results:
            assert result.value["handle"] == "post3"

    def test_epoch_ordering_spans_the_crash(self):
        sw = make()
        populate(sw)
        pre = commit(
            sw, [ops.SetVertexProperty("a", "k", 10)]
        )
        sw.crash_gatekeeper(0)
        sw.run(60 * MSEC)
        post = commit(sw, [ops.SetVertexProperty("a", "k", 20)])
        if post.get("ok"):
            from repro.core.vclock import Ordering

            assert pre["value"].compare(post["value"]) is Ordering.BEFORE
            result = ask(sw, GetNode(), "a", wait=20 * MSEC)
            assert result.value["properties"]["k"] == 20


# -- the resident engine under sim/faults.py ---------------------------------

CHAIN = [f"c{i}" for i in range(12)]


def chain_bfs(victim, offset):
    """BFS down a 12-vertex chain that alternates between the two
    shards (round-robin placement), with ``victim`` crashing ``offset``
    after submission; returns (deployment, result box)."""
    sw = make()
    commit(sw, [ops.CreateVertex(h) for h in CHAIN] + [
        ops.CreateEdge(f"e{i}", a, b)
        for i, (a, b) in enumerate(zip(CHAIN, CHAIN[1:]))
    ])
    assert [sw.mapping.lookup(h) for h in CHAIN[:3]] == [0, 1, 0]
    box = {}
    sw.submit_program(
        Bfs(), CHAIN[0], params(depth=0), callback=lambda r: box.update(r=r)
    )
    sw.simulator.schedule(offset, sw.crash_shard, victim)
    sw.run(80 * MSEC)
    return sw, box


def program_spans(sw):
    return [
        (span.kind, span.node, span.at, span.attrs)
        for span in sw.tracer.spans()
        if span.kind.startswith("program.")
    ]


class TestCrashMidProgram:
    """ROADMAP 1(b)'s exit: the coordinating or a participating shard
    dies mid-round; the program is relaunched after the detector's
    recovery, answers as if nothing happened, and replays identically."""

    @pytest.mark.parametrize("offset", [150 * USEC, 450 * USEC, 900 * USEC])
    @pytest.mark.parametrize("victim", [0, 1], ids=["coordinator",
                                                    "participant"])
    def test_chain_bfs_survives_and_replays(self, victim, offset):
        sw, box = chain_bfs(victim, offset)
        assert box["r"].results == CHAIN
        assert box["r"].read_set == set(CHAIN)
        assert sw.recoveries == 1
        assert not sw._submitted and not sw._stamped
        # The first launch died with the epoch: two stamps, one answer.
        kinds = [kind for kind, *_rest in program_spans(sw)]
        assert kinds.count("program.stamp") == 2
        assert kinds.count("program.complete") == 1
        again, _box = chain_bfs(victim, offset)
        assert program_spans(again) == program_spans(sw)


class TestParkedMessageDeadline:
    def test_shard_that_never_becomes_ready_fails_by_name(self):
        """gk1 cannot reach the shards, so its queues run dry and no
        shard is ever ready again: the parked ``program_start`` fails by
        the engine's own name once ``READY_DEADLINE`` passes on the
        simulated clock."""
        plan = (
            FaultPlan(seed=1)
            .partition("gk1", "shard0", start=4 * MSEC, end=1.0)
            .partition("gk1", "shard1", start=4 * MSEC, end=1.0)
        )
        sw = SimulatedWeaver(
            WeaverConfig(num_gatekeepers=2, num_shards=2),
            tau=200 * USEC, nop_period=100 * USEC, fault_plan=plan,
        )
        for engine in sw._engines.values():
            engine.READY_DEADLINE = 2 * MSEC
        populate(sw)                       # gk0 commits ...
        commit(sw, [ops.CreateVertex("c")])   # ... gk1, so gk0 stamps next
        assert sw.mapping.lookup("a") == 0
        sw.run(2 * MSEC)
        submitted = sw.simulator.now
        sw.submit_program(GetNode(), "a")
        with pytest.raises(
            ProgramError, match="shard0 not ready for .* despite heartbeats"
        ):
            sw.run(20 * MSEC)
        assert 2 * MSEC <= sw.simulator.now - submitted < 3 * MSEC
        assert not sw._submitted and not sw._stamped


ENGINE_FRAMES = ["program_start", "forward", "round_go", "round_report",
                 "prog-reply"]


class TestDuplicatedMessages:
    def block_render(self, kinds):
        """BlockRender on a block with five transactions across both
        shards, every message of ``kinds`` delivered twice."""
        plan = FaultPlan(seed=1).duplicate(1.0, kinds=frozenset(kinds))
        sw = SimulatedWeaver(
            WeaverConfig(num_gatekeepers=2, num_shards=2),
            tau=200 * USEC, nop_period=100 * USEC, fault_plan=plan,
        )
        txs = [f"t{i}" for i in range(5)]
        commit(sw, [ops.CreateVertex("block")] + [
            ops.CreateVertex(t) for t in txs
        ] + [ops.CreateEdge(f"e{t}", "block", t) for t in txs])
        assert {sw.mapping.lookup(t) for t in txs} == {0, 1}
        results = []
        sw.submit_program(BlockRender(), "block", callback=results.append)
        sw.run_until_quiet()
        return sw, results

    @pytest.mark.parametrize("kind", ENGINE_FRAMES)
    def test_engine_frames_are_exactly_once(self, kind):
        """The engine is written for a socket's byte stream; the
        transport drops the second copy of one send (without the rule:
        9 results for ``forward``, 12 for ``program_start``)."""
        sw, (result,) = self.block_render([kind])
        assert sw.network.stats.fault_count("duplicate") > 0
        assert len(result.results) == 6

    def test_enqueue_still_reaches_the_shards_own_check(self):
        sw, (result,) = self.block_render(["tx", "nop"])
        assert len(result.results) == 6
        assert sum(s.stats.duplicates_discarded for s in sw.shards) > 0

    def test_duplicated_prog_submit_completes_once(self):
        plan = FaultPlan(seed=1).duplicate(
            1.0, kinds=frozenset({"prog-submit"})
        )
        sw = SimulatedWeaver(
            WeaverConfig(num_gatekeepers=2, num_shards=2),
            tau=200 * USEC, nop_period=100 * USEC, fault_plan=plan,
        )
        populate(sw)
        results = []
        sw.submit_program(GetNode(), "a", callback=results.append)
        assert sw._submitted
        sw.run_until_quiet()
        # run_until_quiet returned after the one completion, not before.
        (result,) = results
        assert result.value["properties"] == {"k": 1}
        sw.run(5 * MSEC)
        assert len(results) == 1
        assert not sw._submitted and not sw._stamped
        assert len(sw.tracer.spans(kind="program.stamp")) == 1

    def test_no_message_is_a_callable(self, monkeypatch):
        """The gatekeeper request is data (a token), not a closure run
        at the server; so is every engine frame, all the way down.  (A
        ``tx-submit`` still carries its ack callback inside its tuple —
        ROADMAP 2(i)'s open half.)"""
        from repro.cluster.transport import SimTransport
        from repro.workloads.chaos import run_chaos

        def callables(value):
            if callable(value):
                yield value
            elif isinstance(value, dict):
                for item in value.items():
                    yield from callables(item)
            elif isinstance(value, (list, tuple, set, frozenset)):
                for item in value:
                    yield from callables(item)
            elif hasattr(value, "__dict__"):
                yield from callables(vars(value))

        seen = set()
        send = SimTransport.send

        def checked(self, src, dst, kind, payload):
            seen.add(kind)
            assert not callable(payload), kind
            if kind != "tx-submit":
                assert not list(callables(payload)), kind
            send(self, src, dst, kind, payload)

        monkeypatch.setattr(SimTransport, "send", checked)
        report = run_chaos(1, duration=10 * MSEC)
        assert report.reads_completed > 0
        assert {"prog-submit", "program_start", "prog-reply"} <= seen
