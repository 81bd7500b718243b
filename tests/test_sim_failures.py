"""Live failure injection on the event-driven deployment (section 4.3).

Crashes are silent: the server's heartbeats stop, the cluster manager's
failure detector notices after the timeout, and recovery — epoch bump,
barrier, reload from the backing store — runs on simulated time.
"""

import pytest

from repro.db import operations as ops
from repro.db.config import WeaverConfig
from repro.programs import GetNode, Reachability, params
from repro.sim.clock import MSEC, USEC
from repro.sim.deployment import SimulatedWeaver


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
