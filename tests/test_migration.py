"""Dynamic vertex migration and locality rebalancing (section 4.6)."""

import pytest

from repro.db import Weaver, WeaverClient, WeaverConfig
from repro.errors import ClusterError, NoSuchVertex
from repro.workloads import graphs


@pytest.fixture
def setup():
    db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=3))
    client = WeaverClient(db)
    with client.transaction() as tx:
        for name in ("a", "b", "c"):
            tx.create_vertex(name)
        tx.set_property("a", "k", 1)
        tx.create_edge("a", "b", "ab")
        tx.set_edge_property("a", "ab", "w", 2)
    return db, client


class TestMigrateVertex:
    def test_moves_record_and_mapping(self, setup):
        db, client = setup
        source = db.mapping.lookup("a")
        target = (source + 1) % 3
        assert db.migrate_vertex("a", target)
        assert db.mapping.lookup("a") == target
        db.drain()
        assert "a" in db.shards[target].graph
        assert "a" not in db.shards[source].graph

    def test_reads_work_after_migration(self, setup):
        db, client = setup
        db.migrate_vertex("a", (db.mapping.lookup("a") + 1) % 3)
        node = client.get_node("a")
        assert node["properties"] == {"k": 1}
        edges = client.get_edges("a")
        assert edges[0]["properties"] == {"w": 2}
        assert client.reachable("a", "b")

    def test_history_travels_with_the_vertex(self, setup):
        db, client = setup
        point = db.checkpoint()
        client.set_property("a", "k", 2)
        db.migrate_vertex("a", (db.mapping.lookup("a") + 1) % 3)
        # Unlike eviction, migration carries every version.
        assert client.get_node("a", at=point)["properties"]["k"] == 1
        assert client.get_node("a")["properties"]["k"] == 2

    def test_writes_route_to_new_shard(self, setup):
        db, client = setup
        target = (db.mapping.lookup("a") + 1) % 3
        db.migrate_vertex("a", target)
        client.set_property("a", "k", 3)
        db.drain()
        vertex = db.shards[target].graph.raw_vertex("a")
        assert vertex is not None
        assert client.get_node("a")["properties"]["k"] == 3

    def test_same_shard_is_noop(self, setup):
        db, _ = setup
        assert not db.migrate_vertex("a", db.mapping.lookup("a"))

    def test_unknown_vertex_rejected(self, setup):
        db, _ = setup
        with pytest.raises(NoSuchVertex):
            db.migrate_vertex("ghost", 0)

    def test_unknown_shard_rejected(self, setup):
        db, _ = setup
        with pytest.raises(ClusterError):
            db.migrate_vertex("a", 9)


class TestMigrationWithPaging:
    def test_evicted_vertex_can_migrate(self, setup):
        db, client = setup
        db.enable_demand_paging()
        db.evict_vertex("a")
        target = (db.mapping.lookup("a") + 1) % 3
        assert db.migrate_vertex("a", target)
        assert client.get_node("a")["properties"] == {"k": 1}


class TestEdgeCut:
    """``Weaver.edge_cut``: the locality metric the rebalancer reduces."""

    @pytest.fixture
    def placed(self):
        # a and b on shard 0, c on shard 1; edges a->b and a->c.
        db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=2))
        client = WeaverClient(db)
        with client.transaction() as tx:
            for name in ("a", "b", "c"):
                tx.create_vertex(name)
        for name, shard in (("a", 0), ("b", 0), ("c", 1)):
            db.migrate_vertex(name, shard)
        with client.transaction() as tx:
            tx.create_edge("a", "b", "ab")
            tx.create_edge("a", "c", "ac")
        return db, client

    def test_counts_edges_whose_ends_differ_in_shard(self, placed):
        db, _ = placed
        assert db.edge_cut() == (1, 2)

    def test_migrating_an_endpoint_moves_the_cut(self, placed):
        db, _ = placed
        assert db.migrate_vertex("c", 0)
        assert db.edge_cut() == (0, 2)

    def test_a_deleted_edge_leaves_cut_and_total(self, placed):
        db, client = placed
        client.delete_edge("a", "ac")
        assert db.edge_cut() == (0, 1)

    def test_empty_graph_has_no_cut(self):
        db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=3))
        assert db.edge_cut() == (0, 0)

    def test_one_shard_cuts_nothing(self):
        db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=1))
        client = WeaverClient(db)
        graphs.load_into_weaver(client, graphs.social_graph(40, 3, seed=5))
        cut, total = db.edge_cut()
        assert cut == 0 and total > 0


class TestRebalance:
    def test_rebalance_reduces_edge_cut(self):
        db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=4))
        client = WeaverClient(db)
        edges = graphs.social_graph(120, 5, seed=17)
        graphs.load_into_weaver(client, edges)
        cut_before, total = db.edge_cut()
        moves = db.rebalance(max_moves=200)
        cut_after, total_after = db.edge_cut()
        assert total_after == total
        assert moves > 0
        assert cut_after < cut_before

    def test_rebalance_preserves_all_answers(self):
        db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=3))
        client = WeaverClient(db)
        edges = graphs.twitter_graph(60, 3, seed=19)
        graphs.load_into_weaver(client, edges)
        start = edges[-1][0]
        before = client.traverse(start)
        db.rebalance(max_moves=100)
        assert client.traverse(start) == before

    def test_rebalance_respects_move_budget(self):
        db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=4))
        client = WeaverClient(db)
        edges = graphs.social_graph(100, 5, seed=23)
        graphs.load_into_weaver(client, edges)
        assert db.rebalance(max_moves=5) <= 5

    def test_rebalance_idempotent_at_fixpoint(self):
        db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=3))
        client = WeaverClient(db)
        edges = graphs.twitter_graph(50, 3, seed=29)
        graphs.load_into_weaver(client, edges)
        while db.rebalance(max_moves=500):
            pass
        assert db.rebalance(max_moves=500) == 0
