"""Quick-mode perf smoke: the fast paths must not regress.

Deliberately small configurations (seconds, not minutes) suitable for
every CI run: the skyline-indexed oracle must not be slower than the
seed-equivalent reference, and the batched scatter-gather program
executor must keep its structural wins (O(shards) snapshots per query,
batch messages, hop dedup, readiness fast path, one round trip per
read on the process transport, a compiled wire codec, replies that
carry no per-vertex program state) — counts, not
wall clock, so the guard is stable on loaded CI machines.  It records
nothing: the full-size ordering measurement (with the ≥ 3x acceptance
bar) is ``test_micro_ordering.py``'s, the codec's µs and bytes per read
``test_micro_wire.py``'s.

Run with::

    python -m pytest benchmarks/test_perf_guard.py -q
"""

import sys

import pytest

from repro.programs.library import Bfs, params
from tests.engine_rig import Engine, matches_weaver, random_graph
from tests.oracle_reference import compare_fastpath
from tests.reference_executor import build_database

# Best-of-N to damp scheduler noise; the margin tolerates the rest.
_ATTEMPTS = 3
_TOLERANCE = 1.10


def test_indexed_not_slower_than_reference():
    best = None
    for attempt in range(_ATTEMPTS):
        result = compare_fastpath(num_events=300, num_pairs=700, seed=11)
        if best is None or result["speedup"] > best["speedup"]:
            best = result
        if best["speedup"] >= 1.5:
            break
    assert best["concurrent_fraction"] >= 0.30
    assert best["indexed_seconds"] <= best["reference_seconds"] * _TOLERANCE, (
        f"indexed path slower than the seed reference: "
        f"{best['indexed_seconds']:.3f}s vs {best['reference_seconds']:.3f}s"
    )


def test_index_actually_prunes():
    """The guard fails loudly if the index silently degrades to a scan."""
    result = compare_fastpath(num_events=300, num_pairs=700, seed=11)
    counters = result["indexed_counters"]
    assert counters["bfs_pruned"] > counters["bfs_expansions"]


# -- batched scatter-gather node programs -------------------------------


def test_batched_structural_counters():
    """Counts, not clocks: one ``Bfs`` on a 4-shard ``Weaver``.

    Fails loudly if the batched path silently degrades to per-vertex
    behavior — one snapshot per resolution, one message per hop, or no
    same-round dedup.
    """
    db, handles = build_database(num_vertices=200, avg_degree=6)
    stats = db.executor.stats
    before = dict(vars(stats))
    db.run_program(Bfs(), handles[0], params(depth=0))
    delta = {key: value - before[key] for key, value in vars(stats).items()}
    # O(shards) snapshot views per query, not O(vertices visited).
    assert delta["snapshots_created"] <= len(db.shards)
    # One message per (shard, round) beats one per resolved vertex.
    assert delta["shard_batches"] < delta["vertices_resolved"]
    assert delta["round_messages_saved"] > 0
    # BFS revisits vertices from many parents at the same depth.
    assert delta["dedup_hits"] > 0
    assert delta["snapshot_reuse_hits"] > 0


def test_transport_structural_counters():
    """The process transport must keep its structural wins: enqueues ride
    multi-message frames (batching) and multi-shard resolve fan-outs
    overlap in flight (pipelining) — counts, not wall clock, so the
    guard holds on single-core CI machines too."""
    from repro.cluster.process import ProcessWeaver
    from repro.db.config import WeaverConfig
    from repro.programs.library import CollectReachable

    with ProcessWeaver(WeaverConfig(num_shards=2)) as db:
        tx = db.begin_transaction()
        handles = [tx.create_vertex(f"t{i}") for i in range(40)]
        for i in range(1, 40):
            tx.create_edge(handles[(i - 1) // 2], handles[i])
        tx.commit()
        db.drain()
        db.run_program(CollectReachable(), handles[0])
        snap = db.metrics.snapshot()
    assert snap["transport.bytes_sent"] > 0
    assert snap["transport.bytes_received"] > 0
    # Enqueues buffered per channel and flushed as one frame: strictly
    # fewer frames than logical messages.
    assert snap["transport.batched_messages"] > 0
    assert snap["transport.frames_sent"] < snap["transport.messages_sent"]
    # The per-round resolve fan-out writes every request before reading
    # any reply, so requests overlap whenever >1 shard is involved.
    assert snap["transport.requests_pipelined"] > 0


def test_single_vertex_read_is_one_round_trip():
    """Readiness rides the program request: a single-vertex read on two
    shard processes is one request/reply pair plus one one-way frame to
    the other shard — no probe, no second fan-out."""
    from repro.cluster.process import ProcessWeaver
    from repro.db.client import WeaverClient
    from repro.db.config import WeaverConfig

    with ProcessWeaver(WeaverConfig(num_shards=2)) as db:
        client = WeaverClient(db)
        handles = [client.create_vertex(f"r{i}") for i in range(10)]
        db.drain()
        stats = db.transport.stats
        requests = stats.requests
        frames = stats.frames_sent + stats.frames_received
        for i in range(100):
            handle = handles[i % 10]
            assert client.get_node(handle)["handle"] == handle
        assert stats.requests - requests == 100
        assert stats.frames_sent + stats.frames_received - frames <= 300


# -- the wire codec ------------------------------------------------------

# What the six codec calls of the canonical read (tests/wire_fixtures.py)
# cost under the tagged if-chain of wire format 2, measured at the commit
# before the codec was compiled: 1,375 bytes and 1,636 Python-level call
# events (``call`` + ``c_call`` under ``sys.setprofile``).  Today: 963
# bytes and 611 events (the reply's spans ride as one pre-encoded
# ``(count, bytes)`` record since wire format 7; 949 and 657 before).
_IF_CHAIN_CALL_EVENTS = 1636
_CANONICAL_READ_BYTES = 963
# The frame a traversal actually sends (``FORWARD_64``: 8 parents x 8
# hops) when it crossed as 64 ``(handle, namespace, tuple of ints)``
# triples under wire format 3: 5,447 bytes, 3,960 call events to encode
# and decode.  In columns, with byte keys and each parent's params once,
# it is 1,929 bytes and 790 events, ``rows()`` included.
_TRIPLES_CALL_EVENTS = 3960
_FORWARD_64_BYTES = 1929


def test_wire_bytes_for_the_canonical_read_are_pinned():
    """Exactly: a frame that grows (or shrinks) is a format change and
    moves ``wire.bytes_per_op`` on every process workload."""
    from repro.cluster import wire
    from tests.wire_fixtures import CANONICAL_READ

    sizes = [len(wire.encode(frame)) for frame in CANONICAL_READ]
    assert sum(sizes) == _CANONICAL_READ_BYTES, sizes


def _call_events(work) -> int:
    """Python-level call events (``call`` + ``c_call``) ``work()`` makes."""
    events = 0

    def count(_frame, event, _arg):
        nonlocal events
        if event in ("call", "c_call"):
            events += 1

    sys.setprofile(count)
    try:
        work()
    finally:
        sys.setprofile(None)
    return events


def test_wire_codec_call_events_stay_under_half_the_if_chain():
    """Counts, not clocks: encoding and decoding the canonical read's
    three frames must make at most half the Python-level call events
    the if-chain made — the codec degrading to one call (and a few
    appends) per scalar, key and timestamp clock fails here."""
    from repro.cluster import wire
    from tests.wire_fixtures import CANONICAL_READ

    payloads = [wire.encode(frame) for frame in CANONICAL_READ]
    for payload in payloads:        # warm the key-run memos both ways
        wire.decode(payload)

    def six_codec_calls():
        for frame in CANONICAL_READ:
            wire.encode(frame)
        for payload in payloads:
            wire.decode(payload)

    events = _call_events(six_codec_calls)
    assert events <= _IF_CHAIN_CALL_EVENTS // 2, events


def test_the_forward_a_traversal_sends_is_pinned_by_count():
    """Bytes exactly, call events under a quarter of what the triples
    cost: a frontier that goes back to one namespace and one tagged
    tuple per hop — or a ``rows()`` that loops in Python per field —
    fails here, on any machine, without a clock."""
    from repro.cluster import wire
    from tests.wire_fixtures import FORWARD_64

    payload = wire.encode(FORWARD_64)
    assert len(payload) == _FORWARD_64_BYTES
    wire.decode(payload)            # warm the key-run memos
    decoded = []

    def there_and_back():
        wire.encode(FORWARD_64)
        ((_kind, forward),) = wire.decode(payload)["m"]
        decoded.extend(forward.rows())

    events = _call_events(there_and_back)
    assert decoded == FORWARD_64["m"][0][1].rows()
    assert events <= _TRIPLES_CALL_EVENTS // 4, events


# The reply to a depth-2 ``Bfs`` over a root, 8 middles and 64 leaves on
# two shard processes: 73 results, a 73-handle read set, no state — 713
# bytes, against 1,798 when it carried 73 ``prog_state`` namespaces.
_TRAVERSE_REPLY_BYTES = 713


def test_a_traversal_reply_carries_what_was_emitted_not_per_vertex_state():
    """Exactly: ``Bfs`` does not declare ``returns_state``, so the
    payload ``ResidentEngine._finish`` sends holds no ``prog_state`` and
    its encoding is pinned.  One ``SimpleNamespace(visited=True)`` per
    vertex read coming back — encoded at each participant, merged at
    the coordinator, encoded again, decoded here — fails this."""
    from repro.cluster import wire
    from repro.cluster.process import ProcessWeaver
    from repro.db.config import WeaverConfig

    replies = []
    with ProcessWeaver(WeaverConfig(num_shards=2)) as db:
        tx = db.begin_transaction()
        root = tx.create_vertex("g")
        for middle in range(8):
            parent = tx.create_vertex(f"g{middle}")
            tx.create_edge(root, parent)
            for leaf in range(8):
                tx.create_edge(parent, tx.create_vertex(f"g{middle}{leaf}"))
        tx.commit()
        db.drain()
        request = db.transport.request

        def spy(src, dst, kind, payload):
            reply = request(src, dst, kind, payload)
            if kind == "program_start":
                replies.append(dict(reply))
            return reply

        db.transport.request = spy
        result = db.run_program(Bfs(), root, params(depth=0, max_depth=2))
    (payload,) = replies
    assert len(result.results) == len(payload["read_set"]) == 73
    assert payload["states"] == {} == result.states
    assert len(wire.encode(payload)) == _TRAVERSE_REPLY_BYTES


# -- the coordinator's own shard is not a peer ---------------------------

# One ``get_node`` through ``ResidentEngine`` on one in-process shard,
# ``program_start`` to reply, when the coordinator sent itself
# ``round_go`` / ``round_report`` envelopes through ``_dispatch`` and
# merged its one fragment as a gather: 186 call events, 43-50 µs a read
# (least of 7 x 20,000 reads, 2-vCPU Xeon @ 2.10 GHz, Python 3.11).  By
# queued call, quiescence by count and the fragment read as it stands:
# 147 events, 32-38 µs; with the shared view and the one-pass round, 129;
# with the gather written into ``_finish``, 128; with the entry one pass
# through resolver, view, round and exchange, 121 (122 on Python 3.11.7).
# A program that reads only its start vertices, all local, as one pass
# with no round exchange with itself: 65.  The ceiling keeps the
# headroom 156/121 had.
_ONE_VERTEX_READ_CALL_EVENTS = 84


def test_a_one_vertex_read_is_one_pass_by_call():
    """Counts, not clocks: a read of a local vertex by a program that
    declares ``reads_only_start`` is one round, run where it arrives.
    A ``_Coordination``, a ``round_go`` or ``round_report`` to itself,
    or a ``collect_result`` fragment fails here."""
    from repro.db import operations as ops
    from repro.obs.collect import scalar_fields
    from repro.programs.library import GetNode

    writes = (ops.CreateVertex("v"), ops.SetVertexProperty("v", "c", "red"))
    engine = Engine()
    ts = engine.apply(*writes)
    engine.read(ts, "get_node", "v")                    # warm-up
    read = engine.start(ts, 2, "get_node", "v")
    before = scalar_fields(engine.resident)

    def one_read():
        engine._dispatch("client", read)
        engine.drain()

    events = _call_events(one_read)
    counters = {
        key: value - before[key]
        for key, value in scalar_fields(engine.resident).items()
    }
    assert events <= _ONE_VERTEX_READ_CALL_EVENTS, events
    (rid, payload, error), = engine.replies[1:]
    assert (rid, error) == (2, None)
    matches_weaver(payload, writes, GetNode(), "v")
    # The twin charges a shard's service from these.
    assert {key: n for key, n in counters.items() if n} == {
        "programs_coordinated": 1, "programs_participated": 1,
        "rounds_executed": 1, "entries_processed": 1,
    }


# -- a snapshot belongs to the shard and its stamp -----------------------

# A depth-2 ``Bfs`` through a one-shard ``ResidentEngine`` over 400
# vertices of out-degree 6 (seed 7): 43 entries.  When every query built
# its own view, memo included, and ran each entry through a helper, it
# made 2,541 call events, 59.1 per entry.  With the shared view and the
# one-pass round, 1,960 (45.6; not the 43.2 once recorded here) at a
# stamp already read, and 2,396 (55.7) at a new stamp, which builds the
# view.  With the entry one pass through resolver, view, round and
# exchange: 1,438 (33.4) and 1,549 (36.0).  Python 3.11.7.
_ENTRIES = 43
_PARENT_WARM_EVENTS_PER_ENTRY = 1960 / _ENTRIES
_PARENT_FRESH_EVENTS_PER_ENTRY = 2396 / _ENTRIES


def _bfs_events_per_entry(engine, ts, qid):
    """Call events per frontier entry of one depth-2 ``Bfs`` at ``ts``,
    its reply checked against ``Weaver.run_program``'s."""
    from repro.obs.collect import scalar_fields

    start_params = params(depth=0, max_depth=2)
    read = engine.start(ts, qid, "bfs", "v0", start_params)
    before = scalar_fields(engine.resident)["entries_processed"]

    def one_read():
        engine._dispatch("client", read)
        engine.drain()

    events = _call_events(one_read)
    entries = scalar_fields(engine.resident)["entries_processed"] - before
    rid, payload, error = engine.replies[-1]
    assert (rid, error) == (qid, None)
    assert entries == _ENTRIES
    matches_weaver(payload, random_graph(), Bfs(), "v0", start_params)
    return events / entries


def test_a_traversal_at_a_new_stamp_builds_one_view_in_one_pass():
    """Counts, not clocks: the first read at a stamp builds the shard's
    view, and each entry's first sight of its vertex checks visibility
    inline.  A call per handle into the graph or a placement lookup per
    handle fails here."""
    engine = Engine()
    ts = engine.apply(*random_graph())
    events = _bfs_events_per_entry(engine, ts, 1)
    assert engine.shard.stats.views_built == 1
    assert events <= 0.75 * _PARENT_FRESH_EVENTS_PER_ENTRY, events


def test_a_traversal_at_a_served_stamp_reads_the_shared_view():
    """Counts, not clocks: a second read at one stamp builds no view,
    makes no ordering compare beyond the readiness check of the shard's
    queue head, and runs each entry in one pass.  A view per query, a
    per-entry helper call, or a key level packed per single emission
    fails here."""
    engine = Engine()
    ts = engine.apply(*random_graph())
    shard = engine.shard
    engine.read(ts, "bfs", "v0", params(depth=0, max_depth=2))  # warm-up
    stats = shard.ordering.stats
    compares = stats.total
    assert shard.not_ready(ts) is None
    readiness = stats.total - compares
    compares = stats.total
    events = _bfs_events_per_entry(engine, ts, 2)
    assert shard.stats.views_built == 1
    assert stats.total - compares == readiness == 1
    assert events <= 0.75 * _PARENT_WARM_EVENTS_PER_ENTRY, events


def test_a_traversal_after_a_write_works_out_only_what_changed(monkeypatch):
    """Counts, not clocks: on a 2-shard ``Weaver``, a depth-2 ``Bfs``,
    then ``create_edge`` from its root to a vertex it did not reach, then
    the same ``Bfs`` at the fresh stamp.  The second read scans the
    out-edges of the root (written) and of the new vertex (not reached
    before) only; every other incarnation and out-edge list is the
    first read's (``shard.answers_carried``).  A view that discards
    its answers when the stamp moves scans all 5 and carries 0."""
    from repro.db import Weaver, WeaverClient, WeaverConfig
    from repro.graph.mvgraph import SnapshotView

    db = Weaver(WeaverConfig(num_shards=2))
    client = WeaverClient(db)
    with client.transaction() as tx:
        for op in random_graph(vertices=60, degree=3):
            tx.record(op)
    scanned = []
    edges_of = SnapshotView.edges_of

    def scanning(view, vertex):
        if vertex not in view._edges and (
            vertex.handle not in view._graph._current_edges
        ):
            scanned.append(vertex.handle)
        return edges_of(view, vertex)

    monkeypatch.setattr(SnapshotView, "edges_of", scanning)

    def carried():
        return db.metrics.snapshot()["shard.answers_carried"]

    start = params(depth=0, max_depth=2)
    first = db.run_program(Bfs(), "v0", start)
    assert (len(first.results), len(scanned), carried()) == (13, 4, 0)
    new = next(
        f"v{i}" for i in range(60) if f"v{i}" not in first.results
    )
    assert new == "v1"
    client.create_edge("v0", new)
    scanned.clear()
    second = db.run_program(Bfs(), "v0", start)
    assert second.timestamp is not first.timestamp
    assert set(first.results) < set(second.results)
    assert len(second.results) == 16
    assert sorted(scanned) == ["v0", "v1"]
    # 12 incarnations (16 less v0, v1 and its 2 new neighbours) and the
    # out-edges of the 3 other vertices at depth 1.
    assert carried() == 15


def test_page_cache_structural_counters():
    """The durable store's page cache must keep its structural wins:
    hot reads are served from memory, a budget smaller than the data
    evicts instead of growing without bound, and the resident-bytes
    gauge tracks the budget — counts, not wall clock."""
    from repro.store.durable import DurableStore

    budget = 4096
    with DurableStore(cache_bytes=budget) as store:
        for i in range(100):
            store.transact(lambda t, i=i: t.put(f"k{i}", "x" * 100))
        for i in range(100):
            store.get(f"k{i}")
        for _ in range(50):
            store.get("k99")  # hot key: must be cache hits
        stats = store.stats
        assert stats.page_cache_hits >= 50
        assert stats.page_cache_evictions > 0
        assert stats.page_cache_bytes <= budget
        assert stats.page_cache_bytes == store._cache_size


def test_readiness_fastpath_skips_second_storm():
    """Re-running at an already-served timestamp skips the NOP storm."""
    db, handles = build_database(num_vertices=60, avg_degree=4)
    point = db.checkpoint()
    db.run_program(Bfs(), handles[0], params(depth=0), at=point)
    storms = db.executor.stats.readiness_storms
    db.run_program(Bfs(), handles[0], params(depth=0), at=point)
    assert db.executor.stats.readiness_fastpath_hits >= 1
    assert db.executor.stats.readiness_storms == storms


# -- reads ride the ready stamp ------------------------------------------

# Ordering compares one reused single-vertex read makes on 4 gatekeepers
# and 2 shards: each shard's ``ready_for`` looks at its 4 queue heads — 8,
# against 47 for a read that storms.  The snapshot orders none: the
# shard's view of the stamp decided them on the first read (when every
# read built its own view, it ordered 2 more: 10).
_REUSED_READ_COMPARES = 8


def _compares(db):
    """Compares resolved so far, whichever way each was decided."""
    snap = db.metrics.snapshot()
    return sum(
        snap[f"ordering.{kind}"]
        for kind in ("proactive", "reactive")
    )


def _four_by_two(**settings):
    from repro.db import Weaver, WeaverClient, WeaverConfig

    db = Weaver(WeaverConfig(num_gatekeepers=4, num_shards=2, **settings))
    client = WeaverClient(db)
    with client.transaction() as tx:
        for i in range(10):
            tx.create_vertex(f"v{i}")
        for i in range(1, 10):
            tx.create_edge("v0", f"v{i}")
    return db, client


def test_reads_after_one_commit_storm_once():
    """Exactly: 200 reads after one commit are one announce + NOP storm
    (4 NOPs sent, one per gatekeeper; 8 enqueued, one per queue), and a
    reused read costs the shards' own readiness checks and nothing
    else.  A rule that under-reuses (a storm per read) fails here."""
    db, client = _four_by_two()
    client.get_node("v0")
    compares = _compares(db)
    for _ in range(199):
        assert client.get_node("v0")["out_degree"] == 9
    per_read = (_compares(db) - compares) / 199
    stats = db.executor.stats
    assert stats.readiness_storms == 1
    assert stats.readiness_fastpath_hits == 199
    assert sum(gk.stats.nops_sent for gk in db.gatekeepers) == 4
    # Enqueued = still queued behind the read stamp + already applied.
    assert sum(
        sum(shard.queue_depths()) + shard.stats.nops_applied
        for shard in db.shards
    ) == 8
    assert per_read <= _REUSED_READ_COMPARES, per_read


def test_every_read_after_a_commit_storms():
    """Exactly: 100 x (commit, read) is 100 storms — the rule must not
    over-reuse any more than under-reuse."""
    db, client = _four_by_two()
    for i in range(100):
        client.set_property("v1", "n", i)
        assert client.get_node("v1")["properties"] == {"n": i}
    stats = db.executor.stats
    assert stats.readiness_storms == 100
    assert stats.readiness_fastpath_hits == 0


@pytest.mark.parametrize("announce_every", (1, 64))
def test_reads_of_a_vertex_no_commit_writes_storm_once(
    announce_every, monkeypatch
):
    """Exactly: 100 x (commit to v1, read v0) is one storm (the first
    read's, 4 NOPs sent) and one announce round per (commit, read) —
    the commit's own at announce_every=1, the read's otherwise, never
    both.  Every round runs through ``db/database.py``'s
    ``sync_announce_all``."""
    from repro.db import database

    db, client = _four_by_two(announce_every=announce_every)
    assert client.get_node("v0")["out_degree"] == 9
    rounds = []
    announce = database.sync_announce_all
    monkeypatch.setattr(
        database, "sync_announce_all",
        lambda gatekeepers: (rounds.append(1), announce(gatekeepers)),
    )
    for i in range(100):
        client.set_property("v1", "n", i)
        assert client.get_node("v0") == {
            "handle": "v0", "properties": {}, "out_degree": 9,
        }
    stats = db.executor.stats
    assert stats.readiness_storms == 1
    assert stats.readiness_fastpath_hits == 100
    assert stats.readiness_reuses_across_commits == 100
    assert sum(gk.stats.nops_sent for gk in db.gatekeepers) == 4
    assert len(rounds) == 100
