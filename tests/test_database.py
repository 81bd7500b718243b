"""The assembled database: commits, programs, placement, GC, stats."""

import pytest

from repro.core.vclock import Ordering
from repro.db import Weaver, WeaverConfig
from repro.errors import ClusterError
from repro.programs import Bfs, GetNode, params


class TestConfig:
    def test_defaults_valid(self):
        WeaverConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_gatekeepers": 0},
            {"num_shards": 0},
            {"announce_every": 0},
            {"oracle_chain_length": 0},
            {"partitioner": "bogus"},
            {"drain_every": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WeaverConfig(**kwargs)


class TestCommitPath:
    def test_commit_reaches_store_and_shards(self, db):
        with db.begin_transaction() as tx:
            tx.create_vertex("a")
        assert db.store.exists("v:a")
        db.drain()
        shard = db.shards[db.mapping.lookup("a")]
        assert "a" in shard.graph

    def test_round_robin_gatekeeper_selection(self, db):
        tx1 = db.begin_transaction()
        tx2 = db.begin_transaction()
        assert tx1.gatekeeper_index != tx2.gatekeeper_index
        tx1.abort()
        tx2.abort()

    def test_unknown_gatekeeper_rejected(self, db):
        with pytest.raises(ClusterError):
            db.begin_transaction(gatekeeper=9)

    def test_ops_routed_to_owning_shard_only(self, db):
        with db.begin_transaction() as tx:
            tx.create_vertex("a")
            tx.create_vertex("b")
        shard_a = db.mapping.lookup("a")
        shard_b = db.mapping.lookup("b")
        assert shard_a != shard_b  # round-robin placement
        db.drain()
        assert "a" in db.shards[shard_a].graph
        assert "a" not in db.shards[shard_b].graph

    def test_commit_timestamps_totally_ordered_with_announces(self, db):
        stamps = []
        for i in range(4):
            with db.begin_transaction() as tx:
                tx.create_vertex(f"v{i}")
            stamps.append(tx.timestamp)
        for a, b in zip(stamps, stamps[1:]):
            assert a.compare(b) is Ordering.BEFORE

    def test_drain_bounds_queue_depth(self):
        db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=2,
                                 drain_every=10))
        for i in range(25):
            with db.begin_transaction() as tx:
                tx.create_vertex(f"v{i}")
        max_depth = max(
            max(shard.queue_depths()) for shard in db.shards
        )
        assert max_depth < 25


class TestPlacement:
    def test_hash_partitioner_used_when_configured(self):
        db = Weaver(WeaverConfig(num_shards=4, partitioner="hash"))
        with db.begin_transaction() as tx:
            tx.create_vertex("a")
        from repro.graph.partition import HashPartitioner

        assert db.mapping.lookup("a") == HashPartitioner(4).assign("a")

    def test_ldg_partitioner_accepted(self):
        db = Weaver(WeaverConfig(num_shards=2, partitioner="ldg"))
        with db.begin_transaction() as tx:
            tx.create_vertex("a")
        assert db.mapping.lookup("a") is not None


class TestPrograms:
    def test_program_sees_committed_writes(self, db):
        with db.begin_transaction() as tx:
            tx.create_vertex("a")
            tx.set_property("a", "k", 1)
        result = db.run_program(GetNode(), "a")
        assert result.value["properties"] == {"k": 1}

    def test_program_start_list_form(self, db):
        with db.begin_transaction() as tx:
            tx.create_vertex("a")
            tx.create_vertex("b")
        result = db.run_program(
            GetNode(), [("a", None), ("b", None)]
        )
        assert len(result.results) == 2

    def test_missing_start_vertex_yields_empty(self, db):
        result = db.run_program(Bfs(), "ghost", params(depth=0))
        assert result.results == []

    def test_programs_run_counter(self, db):
        with db.begin_transaction() as tx:
            tx.create_vertex("a")
        db.run_program(GetNode(), "a")
        db.run_program(GetNode(), "a")
        assert db.programs_run == 2

    def test_watermark_registry_empty_after_programs(self, db):
        with db.begin_transaction() as tx:
            tx.create_vertex("a")
        db.run_program(GetNode(), "a")
        assert len(db.watermarks) == 0


class TestCheckpoint:
    def test_checkpoint_sees_prior_writes_only(self, db, client):
        with db.begin_transaction() as tx:
            tx.create_vertex("a")
            tx.set_property("a", "v", "old")
        point = db.checkpoint()
        client.set_property("a", "v", "new")
        assert client.get_node("a", at=point)["properties"]["v"] == "old"
        assert client.get_node("a")["properties"]["v"] == "new"

    def test_checkpoint_stable_under_vertex_creation(self, db, client):
        with db.begin_transaction() as tx:
            tx.create_vertex("a")
        point = db.checkpoint()
        client.create_vertex("b")
        result = db.run_program(GetNode(), "b", at=point)
        assert result.results == []  # b did not exist at the checkpoint


class TestGarbageCollection:
    def test_gc_reclaims_deleted_state(self, db, client):
        client.create_vertex("a")
        client.create_vertex("b")
        handle = client.create_edge("a", "b")
        client.delete_edge("a", handle)
        client.delete_vertex("b")
        stats = db.collect_garbage()
        assert stats["graph"] > 0

    def test_gc_preserves_live_data(self, db, client):
        client.create_vertex("a")
        client.set_property("a", "k", 1)
        db.collect_garbage()
        assert client.get_node("a")["properties"] == {"k": 1}

    def test_gc_respects_in_flight_program(self, db, client):
        client.create_vertex("a")
        client.delete_vertex("a")
        # Simulate an in-flight program pinned before the deletion by
        # registering an old watermark.
        old = db.checkpoint()
        db.watermarks.start(999, old)
        db.collect_garbage()
        db.watermarks.finish(999)
        # Vertex record must still answer historical queries at `old`...
        # it was deleted before old, so it is collectable; but a program
        # at `old` must still see a consistent (deleted) state.
        result = db.run_program(GetNode(), "a", at=old)
        assert result.results == []

    def test_gc_cleans_oracle_events(self, db, client):
        # Generate concurrent stamps so the oracle holds events.
        db2 = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=2,
                                  announce_every=10))
        from repro.db import WeaverClient

        c2 = WeaverClient(db2)
        c2.create_vertex("a")
        for i in range(6):
            c2.set_property("a", "k", i)
        db2.drain()
        assert db2.oracle_head().num_events > 0
        db2.collect_garbage()
        # Every event predates the idle-time watermark: all collected.
        assert db2.oracle_head().num_events == 0


    def test_gc_reports_the_same_keys_on_both_deployments(self):
        # One collect_garbage flow: the shard endpoint's collect_below
        # reply carries the ordering-cache eviction count, so neither
        # deployment drops it.
        from repro.cluster.process import ProcessWeaver
        from repro.db import WeaverClient

        def reclaim(db):
            client = WeaverClient(db)
            client.create_vertex("a")
            for i in range(6):
                client.set_property("a", "k", i)
            db.drain()
            return db.collect_garbage()

        def config():
            return WeaverConfig(
                num_gatekeepers=2, num_shards=2, announce_every=10
            )

        direct = reclaim(Weaver(config()))
        with ProcessWeaver(config()) as db:
            process = reclaim(db)
        assert sorted(direct) == ["graph", "oracle", "ordering_cache", "store"]
        assert direct["ordering_cache"] > 0
        assert process == direct
        # An idle second tick still answers with every key.
        assert sorted(Weaver(config()).collect_garbage()) == sorted(direct)


class TestStats:
    def test_ordering_stats_aggregate(self, db, client):
        client.create_vertex("a")
        client.get_node("a")
        stats = db.ordering_stats()
        assert stats["proactive"] > 0

    def test_oracle_head_unreplicated(self, db):
        assert db.oracle_head() is db.oracle

    def test_oracle_head_replicated(self):
        db = Weaver(WeaverConfig(oracle_chain_length=3))
        assert db.oracle_head() is db.oracle.head
