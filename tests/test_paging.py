"""Demand paging (section 6.1)."""

import pytest

from repro.db import Weaver, WeaverClient, WeaverConfig
from repro.db import operations as ops
from repro.db.operations import partition_image, vertex_image
from repro.errors import ClusterError, NoSuchVertex, ProgramError

from .engine_rig import Engine


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
        snap = db.metrics.snapshot()
        assert snap["shard.pages_in"] == snap["shard.pages_out"] == 1

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



class TestDeletingAnEvictedVertex:
    """A delete commits to the store before the shard applies it, so
    paging the vertex in finds no image.  Absence is its committed
    state: the shard skips the op, and a read of another vertex is not
    held up by it."""

    def test_delete(self, paged):
        db, client = paged
        db.evict_vertex("a")
        client.delete_vertex("a")
        assert client.get_node("b")["handle"] == "b"
        with pytest.raises(ProgramError, match="exactly one result, got 0"):
            client.get_node("a")

    def test_write_then_delete(self, paged):
        db, client = paged
        db.evict_vertex("a")
        client.set_property("a", "k", 2)
        client.delete_vertex("a")
        assert client.get_node("b")["handle"] == "b"
        with pytest.raises(ProgramError, match="exactly one result, got 0"):
            client.get_node("a")


def test_the_resident_engine_pages_in():
    """Paging is the shard's: the engine a worker hosts reads an
    evicted vertex back in, as ``Weaver`` does."""
    engine = Engine()
    engine.apply(ops.CreateVertex("v0"), ops.SetVertexProperty("v0", "k", 1))
    engine.shard.pager = lambda handle: (
        ({"v0": {"k": 1}}, {}) if handle == "v0" else None
    )
    assert engine.shard.evict("v0") > 0
    later = engine.apply(ops.CreateVertex("v1"))
    (node,) = engine.read(later, "get_node", "v0")
    assert node["properties"] == {"k": 1}
    assert engine.shard.stats.pages_in == 1


class TestShardResolveBatch:
    """``ShardServer.resolve_batch`` is the one call a program round
    makes per shard batch: it counts the reads, pages evicted vertices
    in, and resolves the batch against the view."""

    def test_counts_every_handle_and_resolves(self):
        engine = Engine()
        later = engine.apply(ops.CreateVertex("v0"))
        shard = engine.shard
        before = shard.stats.vertices_read
        batch = {"v0": None, "ghost": None}
        shard.resolve_batch(shard.snapshot(later), batch)
        assert shard.stats.vertices_read == before + 2
        assert batch["v0"] is not None and batch["ghost"] is None
        assert shard.stats.pages_in == 0

    def test_pages_evicted_handles_in_before_resolving(self):
        engine = Engine()
        engine.apply(
            ops.CreateVertex("v0"), ops.SetVertexProperty("v0", "k", 1)
        )
        shard = engine.shard
        shard.pager = lambda handle: (
            ({"v0": {"k": 1}}, {}) if handle == "v0" else None
        )
        shard.evict("v0")
        later = engine.apply(ops.CreateVertex("v1"))
        batch = {"v0": None, "gone": None}
        shard.resolve_batch(shard.snapshot(later), batch)
        assert batch["v0"] is not None and batch["gone"] is None
        assert shard.stats.pages_in == 1


class TestPagerAcrossRecovery:
    def test_replacement_shard_gets_the_same_loader(self, paged):
        db, _ = paged
        index = db.mapping.lookup("a")
        pager = db.shards[index].pager
        replacement = db.fail_shard(index)
        assert replacement is db.shards[index]
        assert replacement.pager is pager

    def test_unpaged_shard_recovers_unpaged(self, db, client):
        client.create_vertex("a")
        index = db.mapping.lookup("a")
        replacement = db.fail_shard(index)
        assert replacement.pager is None
        with pytest.raises(ClusterError):
            replacement.evict("a")


class TestMigratingAnEvictedVertex:
    """``ShardServer.release_vertex`` pages the vertex in before it
    detaches it, so an evicted vertex migrates with its committed
    state."""

    def test_moves_and_reads_back(self, paged):
        db, client = paged
        source = db.mapping.lookup("a")
        target = (source + 1) % len(db.shards)
        db.evict_vertex("a")
        assert db.migrate_vertex("a", target)
        assert db.metrics.snapshot()["shard.pages_in"] == 1
        assert db.shards[target].graph.raw_vertex("a") is not None
        assert db.shards[source].graph.raw_vertex("a") is None
        assert client.get_node("a")["properties"] == {"k": 1}
        assert client.get_edges("a")[0]["properties"] == {"w": 2}

    def test_release_of_an_absent_vertex_raises(self, paged):
        db, _ = paged
        with pytest.raises(NoSuchVertex):
            db.shards[0].release_vertex("never_existed")
