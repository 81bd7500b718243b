"""Demand paging (section 6.1) and read-only replicas (section 6.4)."""

import pytest

from repro.db import Weaver, WeaverClient, WeaverConfig
from repro.db.operations import partition_image, vertex_image
from repro.errors import ClusterError, NoSuchVertex


@pytest.fixture
def paged():
    db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=2))
    client = WeaverClient(db)
    db.enable_demand_paging()
    with client.transaction() as tx:
        tx.create_vertex("a")
        tx.set_property("a", "k", 1)
        tx.create_vertex("b")
        tx.create_edge("a", "b", "ab")
        tx.set_edge_property("a", "ab", "w", 2)
    return db, client


class TestDemandPaging:
    def test_evict_then_read_pages_back_in(self, paged):
        db, client = paged
        released = db.evict_vertex("a")
        assert released > 0
        node = client.get_node("a")
        assert node["properties"] == {"k": 1}
        assert node["out_degree"] == 1
        stats = db.paging_stats()
        assert stats == {"pages_in": 1, "pages_out": 1}

    def test_paged_in_edges_keep_properties(self, paged):
        db, client = paged
        db.evict_vertex("a")
        edges = client.get_edges("a")
        assert edges[0]["properties"] == {"w": 2}
        assert edges[0]["nbr"] == "b"

    def test_traversal_through_evicted_vertex(self, paged):
        db, client = paged
        db.evict_vertex("a")
        assert client.reachable("a", "b")

    def test_write_to_evicted_vertex_pages_in(self, paged):
        db, client = paged
        db.evict_vertex("a")
        client.set_property("a", "k", 2)
        assert client.get_node("a")["properties"]["k"] == 2

    def test_evicting_missing_vertex_raises(self, paged):
        db, _ = paged
        with pytest.raises(NoSuchVertex):
            db.evict_vertex("ghost")

    def test_evict_without_paging_enabled_raises(self, db, client):
        client.create_vertex("a")
        with pytest.raises(ClusterError):
            db.shards[db.mapping.lookup("a")].evict("a")

    def test_page_in_missing_vertex_returns_not_resident(self, paged):
        db, _ = paged
        shard = db.shards[0]
        assert not shard.ensure_paged("never_existed")

    def test_pager_image_is_the_vertex_share_of_recovery(self, paged):
        """A page-in installs exactly what shard recovery would load
        for that vertex, and no edge of a vertex whose handle only
        extends it."""
        db, client = paged
        with client.transaction() as tx:
            tx.create_vertex("ab")
            tx.create_edge("ab", "a", "ab_a")
        assert vertex_image(db.store, "a") == partition_image(
            db.store.snapshot(), {"a": 0}, 0
        )
        assert vertex_image(db.store, "ghost") is None

    def test_eviction_survives_under_churn(self, paged):
        db, client = paged
        for i in range(5):
            client.set_property("a", "round", i)
            db.evict_vertex("a")
            assert client.get_node("a")["properties"]["round"] == i

    def test_eviction_sacrifices_version_history(self, paged):
        """Documented tradeoff: a page-in restores only the latest
        committed state (stamped 'ancient'), so a checkpoint taken
        between the eviction and the page-in sees post-checkpoint
        writes for that vertex.  Applications needing stable history
        must not evict the vertices it covers (section 4.5's
        keep-history GC policy)."""
        db, client = paged
        db.evict_vertex("a")
        point = db.checkpoint()          # while "a" is paged out
        client.set_property("a", "k", 99)  # pages "a" back in, post-write
        node = client.get_node("a", at=point)
        assert node["properties"]["k"] == 99  # history was sacrificed

    def test_history_stable_when_resident(self, paged):
        """Contrast: without eviction the same sequence keeps history."""
        db, client = paged
        point = db.checkpoint()
        client.set_property("a", "k", 99)
        assert client.get_node("a", at=point)["properties"]["k"] == 1

    def test_paging_survives_shard_failover(self, paged):
        db, client = paged
        db.fail_shard(db.mapping.lookup("a"))
        db.evict_vertex("a")  # pager must be re-installed post-recovery
        assert client.get_node("a")["properties"] == {"k": 1}


class TestReadReplicas:
    @pytest.fixture
    def setup(self):
        db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=2))
        client = WeaverClient(db)
        with client.transaction() as tx:
            tx.create_vertex("a")
            tx.set_property("a", "v", 1)
        shard = db.mapping.lookup("a")
        replica = db.add_read_replica(shard)
        return db, client, replica

    def test_replica_serves_committed_state(self, setup):
        _, _, replica = setup
        assert replica.get_node("a")["properties"] == {"v": 1}

    def test_replica_reads_are_stale_until_refresh(self, setup):
        db, client, replica = setup
        client.set_property("a", "v", 2)
        # The primary sees the write; the replica still serves v=1.
        assert client.get_node("a")["properties"]["v"] == 2
        assert replica.get_node("a")["properties"]["v"] == 1
        db.refresh_replicas()
        assert replica.get_node("a")["properties"]["v"] == 2

    def test_replica_counts_reads_and_refreshes(self, setup):
        db, _, replica = setup
        replica.get_node("a")
        replica.count_edges("a")
        db.refresh_replicas()
        assert replica.reads_served == 2
        assert replica.refreshes == 2  # initial + explicit

    def test_replica_edge_reads(self, setup):
        db, client, replica = setup
        client.create_vertex("b")
        client.create_edge("a", "b", "ab")
        db.refresh_replicas()
        # The edge lives at a's shard; the replica mirrors it.
        assert replica.count_edges("a") == 1
        assert replica.get_edges("a")[0]["nbr"] == "b"

    def test_unknown_shard_rejected(self, setup):
        db, _, _ = setup
        with pytest.raises(ClusterError):
            db.add_read_replica(9)

    def test_replica_never_blocks_on_ordering(self, setup):
        """Replica reads touch neither gatekeepers nor the oracle."""
        db, _, replica = setup
        stamped_before = sum(
            gk.stats.timestamps_issued for gk in db.gatekeepers
        )
        oracle_before = db.oracle_head().stats.messages
        for _ in range(5):
            replica.get_node("a")
        assert (
            sum(gk.stats.timestamps_issued for gk in db.gatekeepers)
            == stamped_before
        )
        assert db.oracle_head().stats.messages == oracle_before
