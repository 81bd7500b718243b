"""Edge cases and smaller API corners across modules."""

import pytest

from repro import errors
from repro.baselines.titan import TitanGraph
from repro.bench.costmodel import CostParams
from repro.bench.models import WeaverModel
from repro.core.vclock import Ordering, VectorTimestamp
from repro.db import Weaver, WeaverClient, WeaverConfig
from repro.sim.clock import MSEC, USEC
from repro.sim.network import Network
from repro.sim.simulator import Simulator


class TestErrors:
    def test_hierarchy(self):
        for exc in (
            errors.TransactionAborted("x"),
            errors.NoSuchVertex("v"),
            errors.NoSuchEdge("e"),
            errors.CycleError("c"),
            errors.OrderingError("o"),
            errors.ClusterError("cl"),
            errors.StoreError("s"),
            errors.ProgramError("p"),
            errors.TransactionError("t"),
        ):
            assert isinstance(exc, errors.WeaverError)

    def test_abort_reason(self):
        exc = errors.TransactionAborted("write conflict")
        assert exc.reason == "write conflict"
        assert "write conflict" in str(exc)

    def test_no_such_vertex_carries_handle(self):
        assert errors.NoSuchVertex("ghost").handle == "ghost"

    def test_garbage_collected_error(self):
        exc = errors.GarbageCollectedError("old", "watermark")
        assert exc.requested == "old"
        assert exc.watermark == "watermark"


class TestAncientTimestamp:
    def test_ancient_before_everything(self):
        ancient = VectorTimestamp.ancient(3)
        real = VectorTimestamp(0, (0, 0, 0), 0)
        assert ancient.compare(real) is Ordering.BEFORE

    def test_ancient_epoch_is_negative(self):
        assert VectorTimestamp.ancient(2).epoch == -1


class TestNetworkJitter:
    def test_jitter_varies_latency(self):
        import random

        sim = Simulator()
        net = Network(
            sim, latency=1 * MSEC, jitter=1 * MSEC,
            rng=random.Random(5),
        )
        times = []
        # Distinct channels so FIFO flooring does not mask the jitter.
        for i in range(10):
            net.send("a", f"b{i}", lambda: times.append(sim.now))
        sim.run()
        assert len(set(round(t, 9) for t in times)) > 1

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            Network(Simulator(), jitter=-1)


class TestWeaverModelIntrospection:
    def test_busiest_utilization_groups(self):
        model = WeaverModel(num_gatekeepers=2, num_shards=2)
        model.read_program(0.0)
        model.write_tx(0.0)
        util = model.busiest_utilization(horizon=1.0)
        assert set(util) == {"gatekeepers", "shards", "store"}
        assert all(0 <= u <= 1 for u in util.values())

    def test_costparams_rtt(self):
        costs = CostParams(net_latency=1 * MSEC)
        assert costs.rtt == pytest.approx(2 * MSEC)


class TestTitanCorners:
    def test_set_property_on_missing_vertex(self):
        titan = TitanGraph()
        with pytest.raises(errors.NoSuchVertex):
            titan.execute(
                [("set_vertex_property", "ghost", "k", 1)], 0.0
            )

    def test_load_with_explicit_vertices(self):
        titan = TitanGraph()
        titan.load([], vertices=["lonely"])
        node, _ = titan.get_node("lonely", 0.0)
        assert node["out_degree"] == 0

    def test_touched_rejects_unknown(self):
        with pytest.raises(ValueError):
            TitanGraph._touched([("warp", "x")])

    def test_reachable_from_unknown_vertex(self):
        titan = TitanGraph()
        assert not titan.reachable("ghost", "also-ghost")


class TestClientCorners:
    def test_db_property(self, db, client):
        assert client.db is db

    def test_run_program_passthrough(self, client):
        client.create_vertex("a")
        from repro.programs import GetNode

        result = client.run_program(GetNode(), "a")
        assert result.value["handle"] == "a"

    def test_get_node_historical_passthrough(self, db, client):
        client.create_vertex("a")
        point = db.checkpoint()
        client.set_property("a", "k", 1)
        assert client.get_node("a", at=point)["properties"] == {}


class TestDeploymentDriving:
    def test_run_until_quiet_completes_program(self):
        from repro.db import operations as ops
        from repro.db.config import WeaverConfig
        from repro.programs import GetNode
        from repro.sim.deployment import SimulatedWeaver

        sw = SimulatedWeaver(
            WeaverConfig(num_gatekeepers=2, num_shards=2),
            tau=200 * USEC,
            nop_period=200 * USEC,
        )
        sw.submit_transaction([ops.CreateVertex("a")])
        sw.run(2 * MSEC)
        box = {}
        sw.submit_program(
            GetNode(), "a", None, callback=lambda r: box.update(r=r)
        )
        sw.run_until_quiet()
        assert "r" in box

    def test_unknown_program_target_resolves_to_empty(self):
        from repro.db.config import WeaverConfig
        from repro.programs import GetNode
        from repro.sim.deployment import SimulatedWeaver

        sw = SimulatedWeaver(
            WeaverConfig(num_gatekeepers=2, num_shards=2),
            tau=200 * USEC,
            nop_period=200 * USEC,
        )
        box = {}
        sw.submit_program(
            GetNode(), "ghost", None, callback=lambda r: box.update(r=r)
        )
        sw.run(5 * MSEC)
        assert box["r"].results == []


class TestConfigSurface:
    def test_defaults_roundtrip_through_weaver(self):
        db = Weaver()
        assert len(db.gatekeepers) == WeaverConfig().num_gatekeepers
        assert len(db.shards) == WeaverConfig().num_shards

    def test_single_server_deployment_works(self):
        db = Weaver(WeaverConfig(num_gatekeepers=1, num_shards=1))
        client = WeaverClient(db)
        with client.transaction() as tx:
            tx.create_vertex("a")
            tx.create_vertex("b")
            tx.create_edge("a", "b")
        assert client.reachable("a", "b")

    def test_many_servers_deployment_works(self):
        db = Weaver(WeaverConfig(num_gatekeepers=6, num_shards=9))
        client = WeaverClient(db)
        names = [client.create_vertex() for _ in range(18)]
        for a, b in zip(names, names[1:]):
            client.create_edge(a, b)
        assert client.reachable(names[0], names[-1])
