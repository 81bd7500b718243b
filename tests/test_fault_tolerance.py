"""Failure handling: shard/gatekeeper recovery, epochs, the oracle chain
(section 4.3)."""

import pytest

from repro.cluster.manager import ClusterManager
from repro.core.vclock import Ordering
from repro.db import Weaver, WeaverClient, WeaverConfig
from repro.errors import ClusterError


def fresh(**kwargs):
    config = dict(num_gatekeepers=2, num_shards=2)
    config.update(kwargs)
    db = Weaver(WeaverConfig(**config))
    return db, WeaverClient(db)


def populate(client):
    with client.transaction() as tx:
        for v in ("a", "b", "c"):
            tx.create_vertex(v)
        tx.set_property("a", "color", "red")
        tx.create_edge("a", "b", "ab")
        tx.set_edge_property("a", "ab", "w", 2)
        tx.create_edge("b", "c", "bc")


class TestShardRecovery:
    def test_data_survives_shard_failure(self):
        db, client = fresh()
        populate(client)
        for index in range(len(db.shards)):
            db.fail_shard(index)
        assert client.get_node("a")["properties"] == {"color": "red"}
        edges = client.get_edges("a")
        assert edges[0]["properties"] == {"w": 2}
        assert client.reachable("a", "c")

    def test_epoch_advances_on_failover(self):
        db, client = fresh()
        populate(client)
        before = db.manager.epoch
        db.fail_shard(0)
        assert db.manager.epoch == before + 1

    def test_writes_work_after_recovery(self):
        db, client = fresh()
        populate(client)
        db.fail_shard(1)
        client.create_vertex("d")
        client.create_edge("c", "d")
        assert client.reachable("a", "d")

    def test_unapplied_commits_survive_via_store(self):
        # Commit without draining: the in-memory queues hold the only
        # in-flight copy; the replacement must reload it from the store.
        db, client = fresh()
        populate(client)
        client.set_property("c", "late", True)  # may still sit in queues
        db.fail_shard(db.mapping.lookup("c"))
        assert client.get_node("c")["properties"].get("late") is True

    def test_failovers_counted(self):
        db, client = fresh()
        populate(client)
        db.fail_shard(0)
        db.fail_gatekeeper(0)
        assert db.manager.failovers == 2


class TestGatekeeperRecovery:
    def test_clock_restarts_but_order_is_preserved(self):
        db, client = fresh()
        populate(client)
        with db.begin_transaction() as tx:
            tx.set_property("a", "pre", 1)
        old_ts = tx.timestamp
        db.fail_gatekeeper(0)
        with db.begin_transaction(gatekeeper=0) as tx2:
            tx2.set_property("a", "post", 2)
        new_ts = tx2.timestamp
        assert new_ts.epoch > old_ts.epoch
        assert old_ts.compare(new_ts) is Ordering.BEFORE

    def test_reads_after_gatekeeper_failover(self):
        db, client = fresh()
        populate(client)
        db.fail_gatekeeper(1)
        assert client.get_node("a")["properties"] == {"color": "red"}
        assert client.reachable("a", "c")

    def test_multiple_failovers(self):
        db, client = fresh()
        populate(client)
        db.fail_gatekeeper(0)
        db.fail_gatekeeper(1)
        db.fail_shard(0)
        client.set_property("b", "alive", True)
        assert client.get_node("b")["properties"]["alive"] is True


class TestClusterManager:
    def make_manager(self, db):
        return db.manager

    def test_heartbeat_tracking(self):
        db, client = fresh()
        manager = db.manager
        manager.heartbeat("gk0", now=10.0)
        manager.heartbeat("shard0", now=10.0)
        failed = manager.detect_failures(now=10.5)
        assert "gk1" in failed and "shard1" in failed
        assert "gk0" not in failed

    def test_unregistered_heartbeat_rejected(self):
        db, client = fresh()
        with pytest.raises(ClusterError):
            db.manager.heartbeat("ghost", now=0.0)

    def test_recover_unknown_indexes_rejected(self):
        db, client = fresh()
        with pytest.raises(ClusterError):
            db.manager.recover_shard(7)
        with pytest.raises(ClusterError):
            db.manager.recover_gatekeeper(7)

    def test_barrier_moves_all_servers_to_new_epoch(self):
        db, client = fresh()
        populate(client)
        db.fail_gatekeeper(0)
        epoch = db.manager.epoch
        for gk in db.gatekeepers:
            assert gk.clock.epoch == epoch
        for shard in db.shards:
            assert shard.epoch == epoch
