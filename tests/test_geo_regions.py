"""Geo-distributed regions: topology, deadlines, and the fast path.

The tentpole of the geo work is exercised end to end elsewhere (the soak
in ``test_geo_soak.py``, the benchmark sweep in ``benchmarks/``); this
file pins the individual mechanisms:

* :class:`RegionTopology` validation and the per-(src, dst)-region
  latency charging in the simulated network;
* :class:`DeadlineStamper` monotonicity (Lamport + floor);
* deadline stamps and fast-path counters on a live geo deployment,
  including the ``region.<r>.*`` metric surface;
* the coordination-accounting bugfix — head-only oracle stats push the
  τ controller in the provably wrong direction once region clients
  serve reads locally;
* the idle-window bugfix — quiescent windows no longer pad the τ
  trajectory;
* the recovery-barrier reconcile — a committed write whose forwarding
  message is partitioned away past an epoch barrier still reaches the
  surviving shard (from the store), and the late message is dropped
  rather than applied out of decided order.
"""

import pytest

from repro.core.gatekeeper import DeadlineStamper
from repro.db.config import WeaverConfig
from repro.db.operations import CreateVertex, SetVertexProperty
from repro.programs.library import GetNode
from repro.sim.clock import MSEC, USEC
from repro.sim.deployment import SimulatedWeaver, TauController
from repro.sim.faults import FaultPlan
from repro.sim.network import Network, RegionTopology
from repro.sim.simulator import Simulator
from repro.workloads.geo import default_geo_topology, run_geo


class TestRegionTopology:
    def test_matrix_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            RegionTopology([[0.0, 1.0], [1.0]])

    def test_matrix_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            RegionTopology([[0.0, -1.0], [1.0, 0.0]])

    def test_needs_at_least_one_region(self):
        with pytest.raises(ValueError, match="at least one"):
            RegionTopology([])

    def test_jitter_shape_must_match(self):
        with pytest.raises(ValueError, match="jitter"):
            RegionTopology([[0.0, 1.0], [1.0, 0.0]], jitter=[[0.0]])

    def test_jitter_must_be_non_negative(self):
        with pytest.raises(ValueError, match="jitter"):
            RegionTopology(
                [[0.0, 1.0], [1.0, 0.0]],
                jitter=[[0.0, -0.5], [0.0, 0.0]],
            )

    def test_assign_out_of_range(self):
        topo = RegionTopology([[0.0]])
        with pytest.raises(ValueError, match="out of range"):
            topo.assign("gk0", 1)

    def test_unassigned_servers_live_in_region_zero(self):
        topo = RegionTopology([[1.0, 2.0], [3.0, 4.0]])
        assert topo.region_of("anything") == 0
        topo.assign("shard1", 1)
        assert topo.region_of("shard1") == 1

    def test_assignments_is_a_copy(self):
        topo = RegionTopology([[1.0, 2.0], [3.0, 4.0]])
        topo.assign("gk0", 1)
        grabbed = topo.assignments
        grabbed["gk0"] = 0
        assert topo.region_of("gk0") == 1

    def test_asymmetric_edges_and_reach(self):
        topo = RegionTopology(
            [[1.0, 10.0], [20.0, 2.0]],
            jitter=[[0.0, 3.0], [1.0, 0.0]],
        )
        assert topo.num_regions == 2
        assert topo.edge(0, 1) == (10.0, 3.0)
        assert topo.edge(1, 0) == (20.0, 1.0)
        assert topo.one_way(0, 1) != topo.one_way(1, 0)
        assert topo.reach(0) == 13.0  # 10 + 3 beats 1 + 0
        assert topo.reach(1) == 21.0
        assert topo.max_reach() == 21.0

    def test_default_topology_is_asymmetric_both_ways(self):
        for n in (2, 3):
            topo = default_geo_topology(n)
            for a in range(n):
                for b in range(n):
                    if a != b:
                        assert topo.one_way(a, b) != topo.one_way(b, a)
        with pytest.raises(ValueError):
            default_geo_topology(4)


class TestNetworkRegionCharging:
    def make(self):
        sim = Simulator()
        topo = RegionTopology([[10.0, 100.0], [200.0, 10.0]])
        topo.assign("gk0", 0)
        topo.assign("shard1", 1)
        net = Network(sim, latency=1.0, topology=topo)
        return sim, net

    def test_cross_region_edges_charge_the_matrix(self):
        sim, net = self.make()
        seen = []
        net.send("gk0", "shard1", lambda: seen.append(sim.now))
        net.send("shard1", "gk0", lambda: seen.append(sim.now))
        net.send("gk0", "gk0", lambda: seen.append(sim.now))
        sim.run()
        assert seen == [10.0, 100.0, 200.0]

    def test_region_counters_key_on_source_region(self):
        sim, net = self.make()
        net.send("gk0", "shard1", lambda: None, kind="announce")
        net.send("gk0", "shard1", lambda: None, kind="announce")
        net.send("shard1", "gk0", lambda: None, kind="announce")
        assert net.stats.region_count(0, "announce") == 2
        assert net.stats.region_count(1, "announce") == 1
        assert net.stats.region_count(1, "nop") == 0
        net.stats.reset()
        assert net.stats.region_count(0, "announce") == 0


class TestDeadlineStamper:
    def test_deadlines_strictly_increase(self):
        clock = [5.0]
        stamper = DeadlineStamper(lambda: clock[0], horizon=2.0)
        first = stamper.next_deadline()
        assert first == 7.0
        # The wall clock stalls; deadlines must not.
        second = stamper.next_deadline()
        third = stamper.next_deadline()
        assert first < second < third
        assert stamper.issued == 3

    def test_floor_from_previous_vertex_update_is_cleared(self):
        stamper = DeadlineStamper(lambda: 0.0, horizon=1.0)
        deadline = stamper.next_deadline(floor=50.0)
        assert deadline > 50.0

    def test_observe_folds_remote_deadline(self):
        stamper = DeadlineStamper(lambda: 0.0, horizon=1.0)
        stamper.observe(30.0)
        assert stamper.last == 30.0
        stamper.observe(10.0)  # stale announce; keep the max
        assert stamper.last == 30.0
        assert stamper.next_deadline() > 30.0

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            DeadlineStamper(lambda: 0.0, horizon=-1.0)


class TestGeoDeployment:
    """A live two-region deployment: stamps, counters, metric names."""

    def make(self):
        config = WeaverConfig(
            num_gatekeepers=2, num_shards=2, num_regions=2
        )
        return SimulatedWeaver(
            config=config,
            tau=200 * USEC,
            nop_period=200 * USEC,
            heartbeat_period=4 * MSEC,
            gc_period=1.0,
            topology=default_geo_topology(2, scale=0.25),
        )

    def test_commits_carry_future_deadlines(self):
        sw = self.make()
        stamps = []
        submitted = sw.simulator.now
        sw.submit_transaction(
            [CreateVertex("a"), SetVertexProperty("a", "w", 1)],
            callback=lambda ok, ts: stamps.append((ok, ts)),
        )
        sw.run(20 * MSEC)
        (ok, ts), = stamps
        assert ok
        assert ts.deadline is not None
        assert ts.deadline > submitted
        # Tiga rule: the ack waited for the deadline to pass.
        assert sw.simulator.now >= ts.deadline

    def test_region_metric_surface(self):
        sw = self.make()
        sw.submit_transaction([CreateVertex("a")])
        sw.run(10 * MSEC)
        snap = sw.metrics.snapshot()
        for region in range(2):
            assert f"region.{region}.oracle_messages" in snap
            assert f"region.{region}.announce_messages" in snap
        assert snap["region.0.announce_messages"] > 0

    def test_fastpath_orders_without_oracle(self):
        rep = run_geo(seed=11, num_regions=2, tau=200 * USEC,
                      duration=10 * MSEC)
        assert rep.consistent, rep.violations
        assert rep.committed > 0
        assert rep.reads_completed > 0
        assert rep.deadline_fastpath > 0
        assert rep.oracle_calls == 0

    def test_oracle_only_baseline_pays_for_the_same_traffic(self):
        fast = run_geo(seed=11, num_regions=2, tau=200 * USEC,
                       duration=10 * MSEC)
        base = run_geo(seed=11, num_regions=2, tau=200 * USEC,
                       duration=10 * MSEC, fastpath=False)
        assert base.consistent, base.violations
        assert base.committed == fast.committed
        assert base.oracle_calls > fast.oracle_calls
        assert base.deadline_fastpath == 0


class TestCoordinationAccounting:
    """Satellite bugfix: per-region banks broke head-only oracle stats."""

    def test_head_only_stats_pick_the_wrong_tau_direction(self):
        # One measurement window: 20 announces, 10 commits, and 32
        # ordering requests of which the region clients answered 30 from
        # their local replicas — only 2 ever reached the chain head.
        head_fed = TauController(400 * USEC)
        aggregated = TauController(400 * USEC)
        # Old accounting: the head saw 2 requests, so announces look
        # 10x the oracle load and τ backs off (grows) — exactly wrong
        # while the regions are hammering their local replicas.
        assert head_fed.observe(2, 20, 10) > 400 * USEC
        # Fixed accounting: 32 > 20, reactive ordering rivals the
        # proactive machinery, τ tightens (shrinks).
        assert aggregated.observe(2 + 30, 20, 10) < 400 * USEC

    def test_deployment_aggregates_region_queries(self):
        # With the fast path off, geo reads resolve established orders
        # at their region replicas; the chain head never sees those.
        rep = run_geo(seed=11, num_regions=2, tau=200 * USEC,
                      duration=10 * MSEC, fastpath=False)
        assert rep.oracle_calls > rep.oracle_calls_head
        local = sum(
            value for key, value in rep.region_metrics.items()
            if key.endswith(".local_queries")
        )
        assert rep.oracle_calls == rep.oracle_calls_head + local


class TestIdleWindows:
    """Satellite bugfix: idle windows no longer pad the τ trajectory."""

    def test_idle_windows_record_no_adjustment_sample(self):
        controller = TauController(100 * USEC)
        assert controller.observe(0, 0, 0) == 100 * USEC
        assert controller.adjustments == []
        controller.observe(5, 1, 3)
        assert len(controller.adjustments) == 1
        # Announce chatter with zero commits is still an idle window.
        controller.observe(0, 40, 0)
        assert len(controller.adjustments) == 1

    def test_trajectory_summary_ignores_idle_windows(self):
        # The Fig 14 harness summarises trajectory = [tau for tau, _ in
        # controller.adjustments]; an idle-padded trajectory would pin
        # the summary to whatever τ the system idled at.
        controller = TauController(100 * USEC, balance_ratio=2.0)
        for _ in range(50):
            controller.observe(0, 0, 0)  # long quiescent stretch
        controller.observe(9, 1, 4)  # oracle-heavy: τ halves
        trajectory = [tau for tau, _ in controller.adjustments]
        assert trajectory == [50 * USEC]


class TestRecoveryReconcile:
    """Recovery-barrier soundness under in-flight committed forwards.

    A region partition can hold a gatekeeper->shard forward in flight
    past an epoch barrier.  The barrier flush assumes no old-epoch
    stamp arrives afterwards, so the surviving shard must (a) recover
    the committed effects from the backing store and (b) drop the late
    message instead of applying it out of decided order.
    """

    def make(self, plan):
        config = WeaverConfig(num_gatekeepers=1, num_shards=2)
        return SimulatedWeaver(
            config=config,
            tau=200 * USEC,
            nop_period=200 * USEC,
            heartbeat_period=2 * MSEC,
            gc_period=1.0,
            fault_plan=plan,
        )

    def test_partitioned_commit_survives_the_barrier(self):
        target = "a"  # placement is round-robin: first vertex -> shard0
        plan = FaultPlan(seed=1).partition(
            "gk0", "shard0", start=4 * MSEC, end=30 * MSEC
        )
        sw = self.make(plan)
        box = {}
        sw.submit_transaction(
            [CreateVertex(target), SetVertexProperty(target, "w", 1)],
            callback=lambda ok, ts: box.update(setup=ok),
        )
        sw.run(4 * MSEC)
        assert box["setup"]
        assert sw.mapping.lookup(target) == 0
        # Commit during the partition: gk0 commits to the store, but the
        # forward to shard0 is held by the partition.
        sw.submit_transaction(
            [SetVertexProperty(target, "w", 99)],
            callback=lambda ok, ts: box.update(write=ok),
        )
        sw.run(2 * MSEC)
        assert box["write"]
        # The *other* shard dies; detection + recovery advance the epoch
        # while the forward is still partitioned away.
        sw.crash_shard(1)
        sw.run(18 * MSEC)  # recover (epoch barrier), then heal at 30ms
        assert sw.recoveries == 1
        assert sw.manager.reconciled_records >= 1
        sw.run(10 * MSEC)
        # The late forward was dropped at the surviving shard...
        assert sw.stragglers_dropped >= 1
        # ...and the committed value is there anyway, via the store.
        results = []
        sw.submit_program(GetNode(), target, callback=results.append)
        sw.run(10 * MSEC)
        (result,) = results
        assert result is not None
        assert result.results[0]["properties"]["w"] == 99
