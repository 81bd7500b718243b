#!/usr/bin/env python3
"""Quickstart: a tour of the Weaver reproduction's public API.

Covers the paper's core feature set end to end:

1. ACID transactions over a property graph (section 2.2),
2. node programs — traversals on consistent snapshots (section 2.3),
3. multi-version historical queries (section 3.1),
4. garbage collection (section 4.5),
5. fault tolerance: shard and gatekeeper failover (section 4.3).

Run:  python examples/quickstart.py
"""

from repro import Weaver, WeaverClient, WeaverConfig


def main():
    # A deployment with 2 gatekeepers and 2 shards, all in-process.
    db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=2))
    client = WeaverClient(db)

    # -- 1. Transactions ---------------------------------------------------
    # Everything inside the block commits atomically, or not at all.
    with client.transaction() as tx:
        for person in ("alice", "bob", "carol", "dan"):
            tx.create_vertex(person)
        tx.set_property("alice", "city", "ithaca")
        follows = tx.create_edge("alice", "bob")
        tx.set_edge_property("alice", follows, "follows", True)
        tx.create_edge("bob", "carol", "bc")
        tx.create_edge("carol", "dan", "cd")
    print("committed at timestamp", tx.timestamp)

    # -- 2. Node programs ---------------------------------------------------
    print("alice ->", client.get_node("alice"))
    print("bfs from alice:", client.traverse("alice"))
    print("alice reaches dan?", client.reachable("alice", "dan"))
    print("path:", client.find_path("alice", "dan"))
    print("shortest path length:",
          client.shortest_path_length("alice", "dan"))

    # -- 3. Historical queries ---------------------------------------------
    # A checkpoint pins a consistent past version of the graph.
    before = db.checkpoint()
    client.delete_edge("bob", "bc")
    print("after unfollow, alice reaches dan?",
          client.reachable("alice", "dan"))
    print("...but at the checkpoint she did:",
          client.reachable("alice", "dan", at=before))

    # -- 4. Garbage collection ----------------------------------------------
    reclaimed = db.collect_garbage()
    print("garbage collected:", reclaimed)

    # -- 5. Fault tolerance ---------------------------------------------
    # Crash a shard: its partition reloads from the backing store.
    db.fail_shard(0)
    print("after shard failover, alice ->", client.get_node("alice"))
    # Crash a gatekeeper: the epoch bumps, ordering stays monotonic.
    db.fail_gatekeeper(1)
    client.set_property("alice", "city", "nyc")
    print("after gatekeeper failover, alice ->", client.get_node("alice"))

    # -- How was everything ordered? --------------------------------------
    snap = db.metrics.snapshot()
    print("ordering decisions:", {
        kind: snap[f"ordering.{kind}"]
        for kind in ("proactive", "reactive")
    })


if __name__ == "__main__":
    main()
