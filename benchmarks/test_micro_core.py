"""Microbenchmarks of the core primitives (real wall-clock time).

Unlike the figure benchmarks (simulated time), these measure the actual
Python implementation: timestamp comparison, oracle ordering, store
commits, end-to-end transactions, and node-program traversal.  They make
regressions in the hot paths visible.
"""

import pytest

from repro.core.gatekeeper import Gatekeeper, sync_announce_all
from repro.core.oracle import TimelineOracle
from repro.core.ordering import RefinableOrdering
from repro.db import Weaver, WeaverClient, WeaverConfig
from repro.store.kvstore import TransactionalStore
from repro.workloads import graphs


def test_vclock_compare(benchmark):
    gks = [Gatekeeper(i, 3) for i in range(3)]
    a = gks[0].issue_timestamp()
    sync_announce_all(gks)
    b = gks[1].issue_timestamp()
    benchmark(a.compare, b)


def test_oracle_order_concurrent_pair(benchmark):
    gks = [Gatekeeper(i, 2) for i in range(2)]
    pairs = [
        (gks[0].issue_timestamp(), gks[1].issue_timestamp())
        for _ in range(10_000)
    ]
    oracle = TimelineOracle()
    counter = iter(pairs)

    def order_one():
        a, b = next(counter)
        oracle.order(a, b)

    benchmark.pedantic(order_one, rounds=1000, iterations=1)


def test_refinable_compare_decided_pair(benchmark):
    gks = [Gatekeeper(i, 2) for i in range(2)]
    a, b = gks[0].issue_timestamp(), gks[1].issue_timestamp()
    ordering = RefinableOrdering(TimelineOracle())
    ordering.compare(a, b)  # the oracle decides; repeats find its order
    benchmark(ordering.compare, a, b)


def test_store_commit(benchmark):
    store = TransactionalStore()
    counter = iter(range(10**9))

    def commit_one():
        i = next(counter)
        tx = store.begin()
        tx.put(f"k{i}", i)
        tx.commit()

    benchmark(commit_one)


def test_weaver_write_transaction(benchmark):
    db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=2))
    client = WeaverClient(db)
    client.create_vertex("hub")
    counter = iter(range(10**9))

    def write_one():
        i = next(counter)

        def build(tx):
            v = tx.create_vertex(f"v{i}")
            tx.create_edge("hub", v)

        client.transact(build)

    benchmark.pedantic(write_one, rounds=200, iterations=1)


def test_weaver_get_node(benchmark):
    db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=2))
    client = WeaverClient(db)
    client.create_vertex("v")
    benchmark(client.get_node, "v")


def test_weaver_bfs_traversal(benchmark):
    db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=4))
    client = WeaverClient(db)
    edges = graphs.twitter_graph(300, 4, seed=1)
    graphs.load_into_weaver(client, edges)
    start = edges[-1][0]  # a late vertex: non-trivial reachable set
    benchmark.pedantic(
        client.traverse, args=(start,), rounds=30, iterations=1
    )
