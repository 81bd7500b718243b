"""One heartbeat chain: ``Gatekeeper.make_nop(after=)`` and the round
each fresh read stamp sends (``WritePath._send_nops``).

Each NOP is made after the previous heartbeat of its chain, so shards
order NOP pairs by vector clocks and never ask the oracle about them.
The product chains one NOP per gatekeeper from the stamp; the twin
chains every region's NOPs, each round after the last, and another
region's from the stamp once it arrives over the network.
"""

import pytest

from repro.core.gatekeeper import DeadlineStamper, Gatekeeper
from repro.core.ordering import RefinableOrdering
from repro.core.vclock import Ordering, VectorTimestamp
from repro.db import operations as ops
from repro.db.config import WeaverConfig
from repro.db.database import Weaver
from repro.programs import GetNode
from repro.sim.clock import MSEC
from repro.sim.deployment import SimulatedWeaver
from repro.workloads.geo import default_geo_topology


class TestMakeNopAfter:
    def test_no_link_is_a_plain_tick(self):
        gk = Gatekeeper(0, 2)
        assert gk.make_nop().clocks == (1, 0)
        assert gk.make_nop(after=None).clocks == (2, 0)
        assert gk.stats.nops_sent == 2

    def test_a_peer_link_is_folded_before_the_tick(self):
        first, second = Gatekeeper(0, 2), Gatekeeper(1, 2)
        link = first.make_nop()
        nop = second.make_nop(after=link)
        assert nop.clocks == (1, 1)
        assert link.compare(nop) is Ordering.BEFORE

    def test_its_own_stamp_is_not_folded(self):
        gk = Gatekeeper(0, 2)
        # A stamp of this issuer that claims more of the peer than the
        # clock has seen: folding it would show up in the NOP.
        own = VectorTimestamp(0, (1, 5), 0)
        assert gk.make_nop(after=own).clocks == (1, 0)

    @pytest.mark.parametrize("epoch", [0, 2], ids=["older", "newer"])
    def test_another_epochs_stamp_is_not_folded(self, epoch):
        gk = Gatekeeper(0, 2, epoch=1)
        stale = VectorTimestamp(epoch, (0, 7), 1)
        nop = gk.make_nop(after=stale)
        assert (nop.epoch, nop.clocks) == (1, (1, 0))

    def test_follow_folds_without_a_tick(self):
        # The twin's stamper follows its region's last NOP, then stamps:
        # the stamp dominates the link, and following issued nothing.
        first, second = Gatekeeper(0, 2), Gatekeeper(1, 2)
        link = first.make_nop()
        second.follow(link)
        assert second.stats.nops_sent == 0
        assert second.stats.timestamps_issued == 0
        assert link.compare(second.issue_timestamp()) is Ordering.BEFORE

    def test_the_fold_is_not_counted_as_an_announce(self):
        first, second = Gatekeeper(0, 2), Gatekeeper(1, 2)
        second.make_nop(after=first.make_nop())
        assert second.stats.announces_received == 0

    def test_a_geo_nop_still_carries_a_deadline(self):
        now = [0.0]
        stamper = DeadlineStamper(lambda: now[0], horizon=1.0)
        first, second = Gatekeeper(0, 2), Gatekeeper(1, 2)
        first.deadline_stamper = second.deadline_stamper = stamper
        link = first.make_nop()
        nop = second.make_nop(after=link)
        assert nop.deadline > link.deadline


def twin(gks, regions=1, announce_every=1000):
    return SimulatedWeaver(
        WeaverConfig(
            num_gatekeepers=gks, num_shards=2, num_regions=regions,
            announce_every=announce_every,
        ),
        heartbeat_period=5 * MSEC,
    )


@pytest.fixture
def recorded(monkeypatch):
    """Every ``make_nop`` call, as (gatekeeper, after, nop)."""
    calls = []
    made = Gatekeeper.make_nop

    def record(self, after=None):
        nop = made(self, after=after)
        calls.append((self, after, nop))
        return nop

    monkeypatch.setattr(Gatekeeper, "make_nop", record)
    return calls


class TestTheProductsChain:
    def test_a_drain_chains_one_nop_per_gatekeeper(self, recorded):
        db = Weaver(WeaverConfig(num_gatekeepers=4, num_shards=2))
        start = len(recorded)
        db.drain()
        nops = [nop for _, _, nop in recorded[start:]]
        assert [nop.issuer for nop in nops] == [0, 1, 2, 3]
        for earlier, later in zip(nops, nops[1:]):
            assert earlier.compare(later) is Ordering.BEFORE

    def test_a_stamped_chain_starts_at_the_stamp(self, recorded):
        db = Weaver(WeaverConfig(num_gatekeepers=3, num_shards=2))
        start = len(recorded)
        stamp = db._send_nops(db.gatekeepers[1])
        calls = recorded[start:]
        assert calls[0][1] is stamp
        for _, _, nop in calls:
            assert stamp.compare(nop) is Ordering.BEFORE

    @pytest.mark.parametrize("gks", [2, 4])
    def test_heartbeats_alone_never_ask_the_oracle(self, gks):
        db = Weaver(WeaverConfig(num_gatekeepers=gks, num_shards=2))
        for _ in range(20):
            db.drain()
        snap = db.metrics.snapshot()
        # A drain applies the previous drain's NOPs on both shards.
        assert snap["shard.nops_applied"] >= 19 * gks * 2
        assert snap["oracle.messages"] == 0


class TestTheTwinsRound:
    @pytest.mark.parametrize("gks", [2, 3, 4])
    def test_fresh_stamps_send_no_nop_pair_to_the_oracle(
        self, gks, recorded, monkeypatch
    ):
        # No script here commits often enough to announce, so a NOP
        # pair left concurrent would reach the oracle.
        asked = []
        compare = RefinableOrdering.compare

        def counted(self, a, b, *args, **kwargs):
            before = self.stats.reactive
            decided = compare(self, a, b, *args, **kwargs)
            if self.stats.reactive != before:
                asked.append((a.id, b.id))
            return decided

        monkeypatch.setattr(RefinableOrdering, "compare", counted)
        sw = twin(gks)
        sw.submit_transaction([ops.CreateVertex("a")])
        sw.run(MSEC)
        for i in range(20):
            # Each write to the start vertex makes the next read fresh.
            sw.submit_transaction([ops.SetVertexProperty("a", "k", i)])
            sw.run(MSEC)
            sw.submit_program(GetNode(), "a")
            sw.run(MSEC)
        sw.run_until_quiet()
        fresh = [
            span for span in sw.tracer.spans(kind="program.stamp")
            if span.attr("reused") is None
        ]
        assert len(fresh) == 20
        assert sw.metrics.snapshot()["shard.nops_applied"] >= 19 * gks * 2
        nops = {nop.id for _, _, nop in recorded}
        assert not [pair for pair in asked if set(pair) <= nops]

    def test_each_round_continues_the_last_one(self, monkeypatch):
        made = []
        for name in ("make_nop", "issue_timestamp"):
            method = getattr(Gatekeeper, name)

            def record(self, *args, method=method, **kwargs):
                stamp = method(self, *args, **kwargs)
                made.append(stamp)
                return stamp

            monkeypatch.setattr(Gatekeeper, name, record)
        sw = twin(3)
        sw.submit_transaction([ops.CreateVertex("a")])
        for i in range(10):
            sw.submit_transaction([ops.SetVertexProperty("a", "k", i)])
            sw.run(MSEC)
            sw.submit_program(GetNode(), "a")
            sw.run(MSEC)
        # One region: each round (a read's, or a GC tick's) is a stamp
        # and three NOPs, its stamp after the last round's last link.
        commits = {
            span.attr("ts").id
            for span in sw.tracer.spans(kind="gatekeeper.stamp")
        }
        chain = [stamp for stamp in made if stamp.id not in commits]
        assert len(chain) >= 10 * 4
        for earlier, later in zip(chain, chain[1:]):
            assert earlier.compare(later) is Ordering.BEFORE

    def test_another_region_chains_after_the_stamp_arrives(
        self, monkeypatch
    ):
        made = []
        make_nop = Gatekeeper.make_nop

        def record(self, after=None):
            nop = make_nop(self, after=after)
            made.append((self, after, nop, sw.simulator.now))
            return nop

        monkeypatch.setattr(Gatekeeper, "make_nop", record)
        topology = default_geo_topology(2)
        sw = SimulatedWeaver(
            WeaverConfig(num_gatekeepers=4, num_shards=2, num_regions=2),
            heartbeat_period=5 * MSEC, topology=topology,
        )
        stamped = {}
        sw.submit_transaction([ops.CreateVertex("a")])
        sw.run(20 * MSEC)
        for i in range(4):
            sw.submit_transaction([ops.SetVertexProperty("a", "k", i)])
            sw.run(20 * MSEC)
            sw.submit_program(GetNode(), "a")
            sw.run(20 * MSEC)
        for span in sw.tracer.spans(kind="program.stamp"):
            stamped[span.attr("ts").id] = span.at
        region = topology.region_of
        remote = [
            (after, nop, now) for gk, after, nop, now in made
            if after is not None and after.id in stamped
            and region(f"gk{after.issuer}") != region(gk.name)
        ]
        assert len(remote) >= 4
        for after, nop, now in remote:
            sent = region(f"gk{after.issuer}")
            hop = topology.one_way(sent, 1 - sent)
            assert now >= stamped[after.id] + hop
            assert nop.deadline > after.deadline
            assert after.compare(nop) is Ordering.BEFORE

    def test_the_chain_stays_inside_a_region(self, recorded):
        # A NOP follows a NOP of its own region only; a link across
        # regions is always a read stamp that travelled the network.
        sw = twin(4, regions=2, announce_every=1)
        sw.submit_transaction([ops.CreateVertex("a")])
        sw.run(5 * MSEC)
        for i in range(4):
            sw.submit_transaction([ops.SetVertexProperty("a", "k", i)])
            sw.run(5 * MSEC)
            sw.submit_program(GetNode(), "a")
            sw.run(5 * MSEC)
        region = sw.topology.region_of
        nops = {nop.id for _, _, nop in recorded}
        links = [(gk, after) for gk, after, _ in recorded if after]
        assert {region(gk.name) for gk, _ in links} == {0, 1}
        crossed = 0
        for gk, after in links:
            if region(f"gk{after.issuer}") == region(gk.name):
                continue
            assert after.id not in nops
            crossed += 1
        assert crossed >= 4

    def test_a_recovered_epoch_inherits_no_counter(self, monkeypatch):
        # After a failover every clock restarts; a NOP folding the old
        # epoch's last link would claim counters no gatekeeper issued
        # in the new epoch, a happens-before edge that never happened.
        # So no stamp may carry a peer's counter above the highest one
        # that peer issued in the stamp's epoch so far.
        stamps = []
        for name in ("make_nop", "issue_timestamp"):
            made = getattr(Gatekeeper, name)

            def record(self, *args, made=made, **kwargs):
                stamp = made(self, *args, **kwargs)
                stamps.append(stamp)
                return stamp

            monkeypatch.setattr(Gatekeeper, name, record)
        sw = twin(3, announce_every=1)
        sw.submit_transaction([ops.CreateVertex("a")])
        sw.run(5 * MSEC)
        sw.crash_gatekeeper(1)
        sw.run(60 * MSEC)
        assert sw.recoveries == 1
        assert {stamp.epoch for stamp in stamps} == {0, 1}
        top = {}
        for stamp in stamps:
            key = (stamp.epoch, stamp.issuer)
            top[key] = max(top.get(key, 0), stamp.local_clock)
            for peer, seen in enumerate(stamp.clocks):
                assert seen <= top.get((stamp.epoch, peer), 0)
