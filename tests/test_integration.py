"""Cross-feature integration stories.

Each test exercises several subsystems together the way a real
deployment would: churn + historical queries + GC, paging + failover,
caching + invalidation + GC, cross-system functional equivalence, and
the full lifecycle of a long-lived database.
"""

import random

import pytest

from repro.baselines.titan import TitanGraph
from repro.db import Weaver, WeaverClient, WeaverConfig
from repro.errors import TransactionAborted
from repro.programs import ComponentSize, GetNode
from repro.workloads import graphs


class TestLongLivedDatabase:
    def test_lifecycle_with_churn_history_gc_and_failover(self):
        """Build, mutate, checkpoint, fail over, collect — all in one
        life: every phase must preserve the previous phases' guarantees."""
        db = Weaver(
            WeaverConfig(num_gatekeepers=3, num_shards=3, announce_every=2)
        )
        client = WeaverClient(db)
        rng = random.Random(99)
        # Phase 1: build.
        edges = graphs.social_graph(60, 4, seed=5)
        handles = graphs.load_into_weaver(client, edges)
        phase1 = db.checkpoint()
        baseline = client.count_edges("n0")
        # Phase 2: churn — delete a third of the edges.
        victims = rng.sample(sorted(handles), len(handles) // 3)
        for key in victims:
            src = key.split("->", 1)[0]
            client.delete_edge(src, handles[key])
        # Historical read sees the phase-1 world.
        assert client.count_edges("n0", at=phase1) == baseline
        # Phase 3: failover of every server class.
        db.fail_shard(1)
        db.fail_gatekeeper(0)
        # Live reads still work, and writes continue.
        client.create_vertex("newcomer")
        client.create_edge("n0", "newcomer")
        assert client.reachable("n0", "newcomer")
        # Phase 4: GC (the epoch bump made the old history collectable).
        stats = db.collect_garbage()
        assert stats["graph"] >= 0
        # Live data untouched by GC.
        assert client.reachable("n0", "newcomer")

    def test_program_results_stable_across_failover(self):
        db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=2))
        client = WeaverClient(db)
        edges = graphs.twitter_graph(80, 3, seed=6)
        graphs.load_into_weaver(client, edges)
        start = edges[-1][0]
        before = set(client.traverse(start))
        db.fail_shard(0)
        db.fail_shard(1)
        after = set(client.traverse(start))
        assert before == after


class TestPagingUnderPressure:
    def test_evict_everything_and_query(self):
        """Evict the entire graph; traversals demand-page it back."""
        db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=2))
        client = WeaverClient(db)
        db.enable_demand_paging()
        edges = graphs.twitter_graph(40, 3, seed=7)
        graphs.load_into_weaver(client, edges)
        names = graphs.vertices_of(edges)
        start = edges[-1][0]
        expected = set(client.traverse(start))
        for name in names:
            db.evict_vertex(name)
        assert set(client.traverse(start)) == expected
        assert db.metrics.snapshot()["shard.pages_in"] >= len(expected)

    def test_paging_with_writes_between_evictions(self):
        db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=2))
        client = WeaverClient(db)
        db.enable_demand_paging()
        client.create_vertex("v")
        for i in range(8):
            client.set_property("v", "i", i)
            if i % 2 == 0:
                db.evict_vertex("v")
            assert client.get_node("v")["properties"]["i"] == i


class TestCrossSystemEquivalence:
    def test_weaver_and_titan_agree_on_final_graph(self):
        """The same committed operation stream produces the same graph
        in Weaver and in the Titan baseline (serializable both ways)."""
        db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=2))
        client = WeaverClient(db)
        titan = TitanGraph(num_shards=2)
        rng = random.Random(13)
        names = [f"v{i}" for i in range(8)]
        with client.transaction() as tx:
            for name in names:
                tx.create_vertex(name)
        for name in names:
            titan.execute([("create_vertex", name)], 0.0)
        edges = {}
        for i in range(60):
            src = names[rng.randrange(len(names))]
            dst = names[rng.randrange(len(names))]
            if rng.random() < 0.7 or not edges:
                handle = f"e{i}"
                try:
                    client.transact(
                        lambda tx: tx.create_edge(src, dst, handle)
                    )
                    titan.execute(
                        [("create_edge", handle, src, dst)], 0.0
                    )
                    edges[handle] = src
                except TransactionAborted:
                    pass
            else:
                handle, owner = rng.choice(sorted(edges.items()))
                client.transact(lambda tx: tx.delete_edge(owner, handle))
                titan.execute([("delete_edge", owner, handle)], 0.0)
                del edges[handle]
        for name in names:
            weaver_edges = {
                e["handle"]: e["nbr"] for e in client.get_edges(name)
            }
            titan_node = titan._vertex(name)
            titan_edges = {
                h: dst for h, (dst, _) in titan_node.edges.items()
            }
            assert weaver_edges == titan_edges

    def test_reachability_agreement_with_graphlab(self):
        from repro.baselines.graphlab import GraphLab

        db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=2))
        client = WeaverClient(db)
        edges = graphs.twitter_graph(60, 3, seed=21)
        graphs.load_into_weaver(client, edges)
        engine = GraphLab(mode="sync")
        engine.load(edges)
        names = graphs.vertices_of(edges)
        rng = random.Random(21)
        for _ in range(15):
            src = names[rng.randrange(len(names))]
            dst = names[rng.randrange(len(names))]
            assert client.reachable(src, dst) == (
                engine.reachability(src, dst)[0]
            )


class TestCachingWithGc:
    def test_cache_and_gc_coexist(self):
        db = Weaver(
            WeaverConfig(
                num_gatekeepers=2, num_shards=2, enable_program_cache=True
            )
        )
        client = WeaverClient(db)
        with client.transaction() as tx:
            tx.create_vertex("a")
            tx.create_vertex("b")
            tx.create_edge("a", "b", "ab")
        first = db.run_program(
            ComponentSize(), "a", use_cache=True, cache_key="cs"
        )
        db.collect_garbage()
        cached = db.run_program(
            ComponentSize(), "a", use_cache=True, cache_key="cs"
        )
        assert cached.results == first.results
        client.delete_edge("a", "ab")
        fresh = db.run_program(
            ComponentSize(), "a", use_cache=True, cache_key="cs"
        )
        assert ComponentSize.size(fresh) == 1

