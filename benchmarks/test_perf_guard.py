"""Quick-mode perf smoke: the fast paths must not regress.

Deliberately small configurations (seconds, not minutes) suitable for
every CI run: the skyline-indexed oracle must not be slower than the
seed-equivalent reference, and the batched scatter-gather program
executor must keep its structural wins (O(shards) snapshots per query,
batch messages, hop dedup, readiness fast path, one round trip per
read on the process transport, a compiled wire codec, replies that
carry no per-vertex program state) — counts, not
wall clock, so the guard is stable on loaded CI machines.  The
full-size measurements (with the ≥ 3x acceptance bars) live in
``test_micro_ordering.py`` and ``test_micro_programs.py``; the codec's
µs and bytes per read in ``test_micro_wire.py``.

Run with::

    python -m pytest benchmarks/test_perf_guard.py -q
"""

import json
import os
import pathlib
import sys

from repro.bench.ordering_bench import compare_fastpath
from repro.bench.programs_bench import build_database, compare_traversal
from repro.programs.library import Bfs, params
from tests.oracle_reference import reference_oracle
from tests.reference_executor import execute_sequential

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Best-of-N to damp scheduler noise; the margin tolerates the rest.
_ATTEMPTS = 3
_TOLERANCE = 1.10


def test_indexed_not_slower_than_reference():
    best = None
    for attempt in range(_ATTEMPTS):
        result = compare_fastpath(
            reference_oracle, num_events=300, num_pairs=700, seed=11
        )
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
    result = compare_fastpath(
        reference_oracle, num_events=300, num_pairs=700, seed=11
    )
    counters = result["indexed_counters"]
    assert counters["bfs_pruned"] > counters["bfs_expansions"]
    assert counters["reach_cache_hits"] > 0


# -- batched scatter-gather node programs -------------------------------


def test_batched_not_slower_than_seed():
    best = None
    for attempt in range(_ATTEMPTS):
        result = compare_traversal(
            execute_sequential, num_vertices=200, avg_degree=6
        )
        if best is None or result["speedup"] > best["speedup"]:
            best = result
        if best["speedup"] >= 1.5:
            break
    assert best["results_equal"]
    assert best["read_sets_equal"]
    assert best["batched_seconds"] <= best["seed_seconds"] * _TOLERANCE, (
        f"batched executor slower than the seed per-vertex path: "
        f"{best['batched_seconds']:.3f}s vs {best['seed_seconds']:.3f}s"
    )


def test_batched_structural_counters():
    """Counts, not clocks: the wins the speedup is built from.

    Fails loudly if the batched path silently degrades to per-vertex
    behavior — one snapshot per resolution, one message per hop, or no
    same-round dedup.
    """
    result = compare_traversal(
        execute_sequential, num_vertices=200, avg_degree=6
    )
    batched = result["batched_counters"]
    seeded = result["seed_counters"]
    # O(shards) snapshot views per query, not O(vertices visited).
    assert batched["snapshots_per_query"] <= result["num_shards"]
    # The seed path really does pay one snapshot per resolution.
    assert seeded["snapshots_per_query"] == seeded["resolutions"]
    # One message per (shard, round) beats one per resolved vertex.
    assert batched["shard_batches"] < batched["vertices_resolved"]
    assert batched["round_messages_saved"] > 0
    # BFS revisits vertices from many parents at the same depth.
    assert batched["dedup_hits"] > 0
    assert batched["snapshot_reuse_hits"] > 0


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
# events (``call`` + ``c_call`` under ``sys.setprofile``).  Today: 950
# bytes and 657 events.
_IF_CHAIN_CALL_EVENTS = 1636
_CANONICAL_READ_BYTES = 950
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


def _one_shard_engine(writes):
    """A ``ResidentEngine`` on one in-process shard with no peers, every
    way out but the reply unused, that has applied ``writes``; and a
    stamp it is ready for, so ``start`` frames run as they arrive."""
    from repro.cluster.messages import ProgramStart, QueuedTransaction
    from repro.cluster.shard import ShardServer
    from repro.cluster.worker import ResidentEngine, ShardEndpoint
    from repro.core.gatekeeper import Gatekeeper
    from repro.core.oracle import TimelineOracle
    from tests.wire_fixtures import order_key

    class StubHost(ResidentEngine):
        def __init__(self):
            self.replies = []
            super().__init__(
                ShardEndpoint(ShardServer(0, 1, TimelineOracle())), 0,
                lambda handle: 0,
            )

        def _reply(self, conn, rid, result=None, error=None):
            self.replies.append((rid, result, error))

        def start(self, query_id, program, handle, start_params=None):
            return {"k": "r", "id": query_id, "kind": "program_start",
                    "p": ProgramStart(self.ts, query_id, program, (
                        (handle, start_params, order_key(0)),
                    ))}

    engine = StubHost()
    gk = Gatekeeper(0, 1)
    write = QueuedTransaction(gk.issue_timestamp(), writes, seqno=0, tiebreak=0)
    engine.ts = gk.issue_timestamp()
    nop = QueuedTransaction(gk.make_nop(), seqno=1, tiebreak=1)
    engine._dispatch("gk0", {"k": "b", "m": [
        ("enqueue", (0, write)), ("enqueue", (0, nop)),
        ("advance_to", engine.ts),
    ]})
    return engine


def _matches_weaver(payload, writes, program, handle, start_params=None):
    """The engine's reply equals ``Weaver.run_program``'s result."""
    from repro.db import Weaver, WeaverConfig
    from repro.db.database import WritePath

    db = Weaver(WeaverConfig(num_shards=1))
    tx = db.begin_transaction()
    for op in writes:
        tx.record(op)
    tx.commit()
    expected = db.run_program(program, handle, start_params)
    got = WritePath._program_result(payload)
    for field in ("results", "read_set", "vertices_visited", "hops",
                  "halted", "rounds", "states"):
        assert getattr(got, field) == getattr(expected, field), field


# -- the coordinator's own shard is not a peer ---------------------------

# One ``get_node`` through ``ResidentEngine`` on one in-process shard,
# ``program_start`` to reply, when the coordinator sent itself
# ``round_go`` / ``round_report`` envelopes through ``_dispatch`` and
# merged its one fragment as a gather: 186 call events, 43-50 µs a read
# (least of 7 x 20,000 reads, 2-vCPU Xeon @ 2.10 GHz, Python 3.11).  By
# queued call, quiescence by count and the fragment read as it stands:
# 147 events, 32-38 µs; with the shared view and the one-pass round, 129.
_ONE_VERTEX_READ_CALL_EVENTS = 156


def test_a_one_vertex_read_runs_its_round_by_call():
    """Counts, not clocks: the one-participant read is the general
    round with nothing to wait for.  An own slice that goes back through
    ``_dispatch`` / ``_not_ready``, a per-round dict of reports, or a
    ``collect_result`` dict to itself fails here."""
    from repro.db import operations as ops
    from repro.obs.collect import scalar_fields
    from repro.programs.library import GetNode

    writes = (ops.CreateVertex("v"), ops.SetVertexProperty("v", "c", "red"))
    engine = _one_shard_engine(writes)
    engine._dispatch("client", engine.start(1, "get_node", "v"))  # warm-up
    engine.drain()
    read = engine.start(2, "get_node", "v")
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
    _matches_weaver(payload, writes, GetNode(), "v")
    # The twin charges a shard's service from these.
    assert {key: n for key, n in counters.items() if n} == {
        "programs_coordinated": 1, "programs_participated": 1,
        "rounds_executed": 1, "entries_processed": 1, "round_reports": 1,
    }


# -- a snapshot belongs to the shard and its stamp -----------------------

# A depth-2 ``Bfs`` through a one-shard ``ResidentEngine`` at a stamp it
# has already read at, over 400 vertices of out-degree 6 (seed 7): 43
# entries.  When every query built its own view, memo included, and ran
# each entry through a helper, it made 2,541 call events, 59.1 per entry;
# with the shared view and the one-pass round, 1,858 (43.2).
_PARENT_BFS_EVENTS_PER_ENTRY = 2541 / 43


def test_a_traversal_at_a_served_stamp_reads_the_shared_view():
    """Counts, not clocks: a second read at one stamp builds no view,
    makes no ordering compare beyond the readiness check of the shard's
    queue head, and runs each entry in one pass.  A view per query, a
    per-entry helper call, or a key level checked per hop fails here."""
    import random

    from repro.db import operations as ops
    from repro.obs.collect import scalar_fields

    rng = random.Random(7)
    writes = [ops.CreateVertex(f"v{i}") for i in range(400)]
    for i in range(400):
        for j, dst in enumerate(rng.sample(range(400), 6)):
            writes.append(ops.CreateEdge(f"e{i}.{j}", f"v{i}", f"v{dst}"))
    engine = _one_shard_engine(tuple(writes))
    shard = engine.worker.shard
    start_params = params(depth=0, max_depth=2)
    engine._dispatch("client", engine.start(1, "bfs", "v0", start_params))
    engine.drain()                                      # warm-up
    built = []
    build = shard.graph.at

    def at(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    shard.graph.at = at
    stats = shard.ordering.stats
    compares = stats.total
    assert shard.not_ready(engine.ts) is None
    readiness = stats.total - compares
    read = engine.start(2, "bfs", "v0", start_params)
    before = scalar_fields(engine.resident)["entries_processed"]
    compares = stats.total

    def one_read():
        engine._dispatch("client", read)
        engine.drain()

    events = _call_events(one_read)
    entries = scalar_fields(engine.resident)["entries_processed"] - before
    (rid, payload, error), = engine.replies[1:]
    assert (rid, error) == (2, None)
    assert entries == 43
    assert built == []
    assert stats.total - compares == readiness == 1
    assert events / entries <= 0.8 * _PARENT_BFS_EVENTS_PER_ENTRY, (
        events / entries
    )
    _matches_weaver(payload, tuple(writes), Bfs(), "v0", start_params)


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


def test_record_guard_context():
    """Archive the quick-mode numbers with the host core count.

    Wall-clock-derived results (here and in the recorded BENCH_*.json
    files) only mean what the hardware lets them mean — the transport
    scaling bar, for one, needs >= 4 real cores.  Recording
    ``cpu_count`` next to the guard's own measurements makes every
    archived number's context explicit.
    """
    ordering = compare_fastpath(
        reference_oracle, num_events=300, num_pairs=700, seed=11
    )
    traversal = compare_traversal(
        execute_sequential, num_vertices=200, avg_degree=6
    )
    (REPO_ROOT / "BENCH_perf_guard.json").write_text(json.dumps({
        "cpu_count": os.cpu_count() or 1,
        "ordering_speedup": ordering["speedup"],
        "traversal_speedup": traversal["speedup"],
        "traversal_results_equal": traversal["results_equal"],
    }, indent=2) + "\n")


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


def _four_by_two():
    from repro.db import Weaver, WeaverClient, WeaverConfig

    db = Weaver(WeaverConfig(num_gatekeepers=4, num_shards=2))
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
    compares = sum(db.ordering_stats().values())
    for _ in range(199):
        assert client.get_node("v0")["out_degree"] == 9
    per_read = (sum(db.ordering_stats().values()) - compares) / 199
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
