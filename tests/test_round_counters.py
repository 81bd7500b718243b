"""The counters a traversal's rounds leave behind, pinned by value.

The discrete-event twin charges a shard's service from these counters
and the end-to-end ledger reads them, so however the round body, the
resolver and the frontier exchange are written, a depth-2 ``Bfs`` must
leave exactly these deltas in ``ProgramStats``, ``ResidentStats`` and
``ShardStats.vertices_read``, and exactly this reply: on the hand-driven
one-shard engine (the perf guard's graph) when its read builds the
shard's view and when it finds it built, and on a two-worker
``ProcessWeaver``.

``ordering.snapshot_memo_hits`` is pinned too: the view that a read
builds finds most of its records' stamps already decided (each graph
here is written by one transaction), and a read that finds the view
built asks it nothing new.  ``shard.views_built`` is one per shard on
the first read at a stamp, none on the next.
"""

import hashlib

from repro.obs.collect import scalar_fields
from repro.programs import Bfs, params

from .engine_rig import Engine, random_graph

START = params(depth=0, max_depth=2)


def digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def moved(before: dict, after: dict) -> dict:
    return {
        key: after[key] - before.get(key, 0) for key in after
        if after[key] != before.get(key, 0)
    }


def engine_counters(engine: Engine) -> dict:
    shard = engine.shard
    counters = {
        f"program.{key}": value
        for key, value in scalar_fields(engine.prog_stats).items()
    }
    counters.update(
        (f"program.resident.{key}", value)
        for key, value in scalar_fields(engine.resident).items()
    )
    counters["shard.vertices_read"] = shard.stats.vertices_read
    counters["shard.views_built"] = shard.stats.views_built
    counters["ordering.snapshot_memo_hits"] = (
        shard.ordering.stats.snapshot_memo_hits
    )
    return counters


def reply_of(payload: dict) -> dict:
    return {
        "results": (len(payload["results"]), digest(payload["results"])),
        "read_set": (len(payload["read_set"]),
                     digest(sorted(payload["read_set"]))),
        "states": payload["states"],
        "vertices_visited": payload["vertices_visited"],
        "hops": payload["hops"],
        "halted": payload["halted"],
        "rounds": payload["rounds"],
    }


# One read per view: the first builds it, the second finds it.
ENGINE_WARM = {
    "program.batch_rounds": 3,
    "program.executions": 1,
    "program.resident.entries_processed": 43,
    "program.resident.programs_coordinated": 1,
    "program.resident.programs_participated": 1,
    "program.resident.round_reports": 3,
    "program.resident.rounds_executed": 3,
    "program.round_messages_saved": 40,
    "program.shard_batches": 3,
    "program.snapshot_reuse_hits": 42,
    "program.snapshots_created": 1,
    "program.vertices_resolved": 43,
    "shard.vertices_read": 42,
}
ENGINE_FRESH = dict(ENGINE_WARM, **{
    "shard.views_built": 1, "ordering.snapshot_memo_hits": 83,
})
ENGINE_REPLY = {
    "results": (42, "88e68ede3dfd620c"),
    "read_set": (42, "664f4e5fe94f9dc5"),
    "states": {},
    "vertices_visited": 43,
    "hops": 42,
    "halted": False,
    "rounds": 3,
}


def test_a_traversal_on_the_one_shard_engine_leaves_these_counters():
    engine = Engine()
    ts = engine.apply(*random_graph())
    replies = []
    for pinned in (ENGINE_FRESH, ENGINE_WARM):
        before = engine_counters(engine)
        engine.read(ts, "bfs", "v0", START)
        assert moved(before, engine_counters(engine)) == pinned
        replies.append(reply_of(engine.replies[-1][1]))
    assert replies == [ENGINE_REPLY, ENGINE_REPLY]


# A 40-vertex graph over two workers: frontier forwards both ways, hops
# dropped as same-round duplicates, revisits served by the query's cache.
PROCESS_WARM = {
    "program.batch_rounds": 5,
    "program.dedup_hits": 11,
    "program.executions": 1,
    "program.readiness_fastpath_hits": 1,
    "program.resident.entries_processed": 32,
    "program.resident.forwards_received": 3,
    "program.resident.forwards_sent": 3,
    "program.resident.hops_forwarded": 20,
    "program.resident.hops_received": 20,
    "program.resident.programs_coordinated": 1,
    "program.resident.programs_participated": 2,
    "program.resident.round_reports": 5,
    "program.resident.rounds_executed": 5,
    "program.round_messages_saved": 27,
    "program.shard_batches": 5,
    "program.snapshot_reuse_hits": 30,
    "program.snapshots_created": 2,
    "program.vertices_resolved": 32,
    "shard.vertices_read": 28,
}
# The first read after the commit storms instead of riding the stamp.
PROCESS_FRESH = dict(PROCESS_WARM, **{
    "program.readiness_storms": 1, "shard.views_built": 2,
    "ordering.snapshot_memo_hits": 68,
})
del PROCESS_FRESH["program.readiness_fastpath_hits"]
PROCESS_REPLY = {
    "results": (28, "309c7dd1b307d260"),
    "read_set": (28, "263007417aabdcc9"),
    "states": {},
    "vertices_visited": 32,
    "hops": 42,
    "halted": False,
    "rounds": 3,
}


def process_counters(db) -> dict:
    snap = db.metrics.snapshot()
    return {
        key: value for key, value in snap.items()
        if key.startswith("program.") or key in (
            "shard.vertices_read", "shard.views_built",
            "ordering.snapshot_memo_hits",
        )
    }


def test_a_traversal_on_two_worker_processes_leaves_these_counters():
    from repro.cluster.process import ProcessWeaver
    from repro.db.config import WeaverConfig

    with ProcessWeaver(WeaverConfig(num_shards=2)) as db:
        tx = db.begin_transaction()
        for op in random_graph(vertices=40):
            tx.record(op)
        tx.commit()
        db.drain()
        moves, replies = [], []
        for _ in range(2):
            before = process_counters(db)
            result = db.run_program(Bfs(), "v0", START)
            moves.append(moved(before, process_counters(db)))
            replies.append(reply_of({
                "results": result.results, "read_set": result.read_set,
                "states": result.states,
                "vertices_visited": result.vertices_visited,
                "hops": result.hops, "halted": result.halted,
                "rounds": result.rounds,
            }))
    assert moves == [PROCESS_FRESH, PROCESS_WARM]
    assert replies == [PROCESS_REPLY, PROCESS_REPLY]


def test_bfs_hands_on_one_params_object_per_depth_per_query():
    """A frontier forward carries each distinct params object once, so
    ``Bfs`` mints one per depth per query, not one per parent.  The
    memo is the query's: not in ``vars(program)`` (what crosses the wire
    as ``init``), and a second query mints its own."""
    from repro.programs.framework import ProgramStats, run_round
    from repro.programs.routing import ShardSnapshotResolver
    from repro.programs.state import ProgramContext

    engine = Engine()
    ts = engine.apply(*random_graph(vertices=40))
    program = Bfs()
    minted = []
    for qid in (1, 2):
        ctx = ProgramContext(qid, ts)
        resolver = ShardSnapshotResolver(ts, None, [engine.shard])
        frontier, per_round = [("v0", START)], []
        while frontier:
            hops = []
            run_round(program, frontier, resolver.resolve_many, ctx,
                      ProgramStats(), lambda _e, _n, out: hops.extend(out))
            per_round.append({id(p): p for _handle, p in hops})
            frontier = hops
        assert [len(objects) for objects in per_round] == [1, 1, 0]
        minted.append([next(iter(objects.values()))
                       for objects in per_round[:2]])
        assert [vars(p)["depth"] for p in minted[-1]] == [1, 2]
    assert vars(program) == {}
    assert all(a is not b for a, b in zip(*minted))
