"""The event-driven simulated deployment: the protocol on real timers."""

import dataclasses
import random

import pytest

from repro.cluster import messages
from repro.cluster.messages import (
    FrontierForward,
    ProgramStart,
    QueuedTransaction,
)
from repro.cluster.shard import ShardServer
from repro.cluster.worker import ResidentEngine, ShardEndpoint
from repro.core.gatekeeper import Gatekeeper
from repro.core.oracle import TimelineOracle
from repro.db import operations as ops
from repro.db.config import WeaverConfig
from repro.db.database import Weaver, WritePath
from repro.errors import ProgramError
from repro.programs import Bfs, GetEdges, GetNode, Reachability, params
from repro.programs.analytics import PushPageRank
from repro.programs.framework import NodeProgram
from repro.programs.library import PROGRAM_REGISTRY
from repro.sim.clock import MSEC, USEC
from repro.sim.deployment import SimulatedWeaver
from repro.sim.faults import FaultPlan
from tests.test_program_resident import (
    POOL,
    _assert_equivalent,
    halting_edges,
    pagerank,
    pagerank_edges,
)
from tests.wire_fixtures import order_key


def make(tau=200 * USEC, nop_period=100 * USEC, gks=2, shards=2):
    return SimulatedWeaver(
        WeaverConfig(num_gatekeepers=gks, num_shards=shards),
        tau=tau,
        nop_period=nop_period,
    )


def commit(sw, operations):
    outcome = {}
    sw.submit_transaction(
        operations,
        callback=lambda ok, value: outcome.update(ok=ok, value=value),
    )
    sw.run(2 * MSEC)
    return outcome


def ask(sw, program, start, prog_params=None):
    box = {}
    sw.submit_program(
        program, start, prog_params, callback=lambda r: box.update(r=r)
    )
    sw.run(5 * MSEC)
    return box.get("r")


class TestTransactions:
    def test_commit_through_network(self):
        sw = make()
        outcome = commit(sw, [ops.CreateVertex("a")])
        assert outcome["ok"]
        assert sw.committed == 1
        assert sw.store.exists("v:a")

    def test_invalid_transaction_aborts(self):
        sw = make()
        commit(sw, [ops.CreateVertex("a")])
        outcome = commit(sw, [ops.CreateVertex("a")])
        assert not outcome["ok"]
        assert sw.aborted == 1

    def test_writes_reach_shards_in_memory(self):
        sw = make()
        commit(sw, [ops.CreateVertex("a")])
        sw.run(2 * MSEC)
        shard = sw.shards[sw.mapping.lookup("a")]
        assert "a" in shard.graph


class TestPrograms:
    def test_program_sees_committed_write(self):
        sw = make()
        commit(
            sw,
            [
                ops.CreateVertex("a"),
                ops.CreateVertex("b"),
                ops.CreateEdge("e", "a", "b"),
            ],
        )
        result = ask(sw, Reachability(), "a", params(target="b"))
        assert result.results == [True]

    def test_program_latency_bounded_by_timers(self):
        # The section 4.2 bound: a program waits at most ~tau (for the
        # issuing gatekeeper's announce) + a NOP period + network hops.
        tau, nop = 200 * USEC, 100 * USEC
        sw = make(tau=tau, nop_period=nop)
        commit(sw, [ops.CreateVertex("a")])
        ask(sw, GetNode(), "a")
        assert sw.latency_program.count == 1
        bound = tau + 2 * nop + 6 * 100 * USEC  # generous hop budget
        assert sw.latency_program.max <= bound

    def test_multi_hop_traversal(self):
        sw = make()
        commit(
            sw,
            [
                ops.CreateVertex("a"),
                ops.CreateVertex("b"),
                ops.CreateVertex("c"),
                ops.CreateEdge("ab", "a", "b"),
                ops.CreateEdge("bc", "b", "c"),
            ],
        )
        result = ask(sw, Bfs(), "a", params(depth=0))
        assert result.results == ["a", "b", "c"]

    def test_program_waits_for_concurrent_write(self):
        # Submit a write and a program back-to-back: the program's
        # snapshot must include the write (it committed first).
        sw = make()
        commit(sw, [ops.CreateVertex("a")])
        box = {}
        sw.submit_transaction(
            [ops.SetVertexProperty("a", "k", 42)],
            callback=lambda ok, v: None,
        )
        sw.submit_program(
            GetNode(), "a", None, callback=lambda r: box.update(r=r)
        )
        sw.run(5 * MSEC)
        assert box["r"].value["properties"] == {"k": 42}


class TestTimers:
    def test_announces_flow(self):
        sw = make()
        sw.run(2 * MSEC)
        assert sw.announce_messages() > 0

    def test_nops_flow(self):
        sw = make()
        sw.run(2 * MSEC)
        assert sw.nop_messages() > 0

    def test_heartbeats_keep_servers_alive(self):
        sw = make()
        sw.run(0.5)
        assert sw.manager.detect_failures(sw.simulator.now) == []

    def test_smaller_tau_means_fewer_oracle_messages(self):
        # The Fig 14 tradeoff emerging from real timers: with announces
        # much faster than NOPs, heartbeat stamps order proactively; with
        # slow announces they stay concurrent and hit the oracle.
        def oracle_traffic(tau):
            sw = make(tau=tau, nop_period=200 * USEC)
            commit(sw, [ops.CreateVertex("a")])
            ask(sw, GetNode(), "a")
            sw.run(5 * MSEC)
            return sw.oracle_messages()

        fast = oracle_traffic(50 * USEC)
        slow = oracle_traffic(2 * MSEC)
        assert fast < slow

    def test_fifo_channels_hold_under_load(self):
        sw = make()
        for i in range(10):
            sw.submit_transaction([ops.CreateVertex(f"v{i}")])
        sw.run(10 * MSEC)
        assert sw.committed == 10
        assert all(
            shard.stats.out_of_order_rejected == 0 for shard in sw.shards
        )


# One script: creates across both gatekeepers (submissions alternate),
# property writes, edges, a delete.
SCRIPT = [
    [ops.CreateVertex("ann"), ops.CreateVertex("bob"),
     ops.CreateVertex("cat")],
    [ops.CreateVertex("dan"), ops.SetVertexProperty("dan", "k", 1)],
    [ops.SetVertexProperty("ann", "color", "red"),
     ops.CreateEdge("ab", "ann", "bob")],
    [ops.CreateEdge("bc", "bob", "cat"),
     ops.SetEdgeProperty("bob", "bc", "weight", 3)],
    [ops.CreateEdge("ad", "ann", "dan"), ops.CreateVertex("eve")],
    [ops.DeleteEdge("ann", "ad"), ops.DeleteVertex("dan")],
]
SCRIPT_VERTICES = ("ann", "bob", "cat", "eve")


def observed(db, answers):
    """What a deployment holds after SCRIPT, in comparable form."""
    return {
        "mapping": sorted(db.mapping.items()),
        "store": ops.graph_state_from_store(db.store.snapshot()),
        "answers": answers,
        # Which gatekeeper's channel fed each shard, in arrival order.
        # Raw seqnos differ by design: the sim's timer NOPs share the
        # channels with the transactions.
        "channels": [
            [
                span.attr("gk")
                for span in db.tracer.spans(kind="shard.enqueue")
                if span.attr("shard") == index
            ]
            for index in range(db.config.num_shards)
        ],
    }


class TestOneWritePath:
    """The sim is held to the coordinator, not to itself."""

    @pytest.mark.parametrize("partitioner", ["round_robin", "hash"])
    def test_same_script_same_state_as_weaver(self, partitioner):
        def config():
            return WeaverConfig(
                num_gatekeepers=2, num_shards=2, partitioner=partitioner
            )

        db = Weaver(config())
        for operations in SCRIPT:
            tx = db.begin_transaction()
            for op in operations:
                tx.record(op)
            tx.commit()
        direct = observed(db, [
            db.run_program(program, v).results
            for v in SCRIPT_VERTICES for program in (GetNode(), GetEdges())
        ])

        sw = SimulatedWeaver(config(), tau=200 * USEC, nop_period=100 * USEC)
        for operations in SCRIPT:
            assert commit(sw, operations)["ok"]
        simulated = observed(sw, [
            ask(sw, program, v).results
            for v in SCRIPT_VERTICES for program in (GetNode(), GetEdges())
        ])

        assert simulated == direct
        assert len({shard for _, shard in direct["mapping"]}) == 2
        assert all(direct["channels"])

    def test_inherits_nothing_it_cannot_run(self):
        sw = make()
        for blocking in ("drain", "checkpoint", "begin_transaction",
                         "collect_garbage", "_make_shards_ready"):
            assert not hasattr(sw, blocking)
        for inherited in ("_commit_transaction", "_enqueue",
                          "_forward_to_shards", "_place_new_vertices"):
            assert inherited not in vars(SimulatedWeaver)
            assert inherited in vars(WritePath)

    def test_bare_create_commits_and_is_readable(self):
        sw = make()
        assert commit(sw, [ops.CreateVertex("a")])["ok"]
        assert ask(sw, GetNode(), "a").value["handle"] == "a"

    def test_create_with_writes_places_once(self):
        sw = make()
        assert commit(sw, [
            ops.CreateVertex("a"),
            ops.SetVertexProperty("a", "k", 1),
            ops.SetVertexProperty("a", "k", 2),
        ])["ok"]
        assert sw.mapping.load() == {0: 1, 1: 0}
        assert commit(sw, [ops.CreateVertex("b")])["ok"]
        assert sw.mapping.lookup("b") == 1  # the next slot, not the third

    def test_aborted_create_burns_no_placement_slot(self):
        # Every submission arrives twice; the copy aborts ("vertex
        # exists") and must not advance the round-robin cursor.
        plan = FaultPlan(seed=1).duplicate(
            1.0, kinds=frozenset({"tx-submit"})
        )
        sw = SimulatedWeaver(
            WeaverConfig(num_gatekeepers=2, num_shards=2),
            tau=200 * USEC, nop_period=100 * USEC, fault_plan=plan,
        )
        for i in range(4):
            sw.submit_transaction([ops.CreateVertex(f"v{i}")])
            sw.run(2 * MSEC)
        assert (sw.committed, sw.aborted) == (4, 4)
        assert sw.mapping.load() == {0: 2, 1: 2}


# -- one program engine -------------------------------------------------

# Start parameters for the registry programs that need some; the rest
# take None.
PROGRAM_PARAMS = {
    "bfs": lambda h: params(depth=0),
    "reachability": lambda h: params(target=h[-1]),
    "shortest_path": lambda h: params(target=h[len(h) // 2], dist=0),
    "path_discovery": lambda h: params(target=h[-1]),
    "k_hop_neighborhood": lambda h: params(k=2),
    "degree_histogram": lambda h: params(k=2),
    "weighted_shortest_path": lambda h: params(target=h[-1]),
    "push_pagerank": lambda h: params(mass=1.0),
}

# Constructor arguments, away from the defaults, for the registry
# classes that take any: what ``init`` has to carry to the shards.
PROGRAM_KWARGS = {
    "weighted_shortest_path": {"weight_prop": "cost"},
    "push_pagerank": {"damping": 0.6, "epsilon": 1e-2},
}


def build_program(name):
    return PROGRAM_REGISTRY[name](**PROGRAM_KWARGS.get(name, {}))


class BadHop(NodeProgram):
    """Where the reference raises: a malformed next-hop."""

    name = "bad_hop"

    def run(self, node, params, ctx):
        return [node.handle]


def seeded_edges(seed, num_vertices=24, degree=3):
    rng = random.Random(seed)
    handles = [f"v{i}" for i in range(num_vertices)]
    edges = [
        (src, handles[rng.randrange(num_vertices)])
        for src in handles for _ in range(degree)
    ]
    return handles, [(src, dst) for src, dst in edges if src != dst]


@pytest.fixture(
    scope="module",
    params=[(seed, shards) for seed in (3, 21, 99) for shards in (2, 3)],
    ids=lambda p: f"seed{p[0]}-{p[1]}shards",
)
def twin_graphs(request):
    """The same seeded graph in a ``Weaver`` (the reference executor)
    and in a fault-free ``SimulatedWeaver`` (the resident engine)."""
    seed, shards = request.param
    handles, edges = seeded_edges(seed)
    creates = [ops.CreateVertex(h) for h in handles]
    links = [
        ops.CreateEdge(f"e{i}", src, dst)
        for i, (src, dst) in enumerate(edges)
    ]
    costs = random.Random(seed + 1)
    priced = [
        ops.SetEdgeProperty(src, f"e{i}", "cost", float(costs.randrange(1, 9)))
        for i, (src, _dst) in enumerate(edges)
    ]

    def config():
        return WeaverConfig(
            num_gatekeepers=2, num_shards=shards, partitioner="hash"
        )

    db = Weaver(config())
    for operations in (creates, links, priced):
        tx = db.begin_transaction()
        for op in operations:
            tx.record(op)
        tx.commit()
    sw = SimulatedWeaver(config(), tau=200 * USEC, nop_period=100 * USEC)
    for operations in (creates, links, priced):
        assert commit(sw, operations)["ok"]
    return db, sw, handles


class TestEngineMatchesExecutor:
    """The engine the sim hosts is held to ``Weaver.run_program``."""

    @pytest.mark.parametrize(
        "name", sorted(PROGRAM_REGISTRY) + [BadHop.name]
    )
    def test_registry_program_equals_the_reference(
        self, twin_graphs, name, monkeypatch
    ):
        monkeypatch.setitem(PROGRAM_REGISTRY, BadHop.name, BadHop)
        db, sw, handles = twin_graphs
        prog_params = PROGRAM_PARAMS.get(name, lambda h: None)(handles)
        box = {}
        sw.submit_program(
            build_program(name), handles[0], prog_params,
            callback=lambda r: box.update(r=r),
        )
        try:
            reference = db.run_program(
                build_program(name), handles[0], prog_params
            )
        except Exception as exc:  # noqa: BLE001 - compared below
            with pytest.raises(type(exc)) as raised:
                sw.run_until_quiet()
            assert str(raised.value) == str(exc)
            assert not sw._submitted and not sw._stamped
            return
        sw.run_until_quiet()
        result = box["r"]
        for field in ("results", "read_set", "states", "vertices_visited",
                      "hops", "halted"):
            assert getattr(result, field) == getattr(reference, field), field

    def test_the_twin_has_one_program_model(self):
        sw = make()
        for gone in ("_pending_programs", "_programs_outstanding",
                     "_check_pending_programs", "_restamp_pending_programs",
                     "_charge_program_reads", "_resolver", "_endpoints"):
            assert not hasattr(sw, gone), gone
        # Every shard handler on the transport ends in the one engine.
        for shard in sw.shards:
            handler = sw.transport._handlers[shard.name]
            assert isinstance(handler.__self__, ResidentEngine)

    def test_engine_runs_on_four_lists_and_no_socket(self):
        """The seam is the whole interface: a host that only appends to
        lists drives a two-round BFS across a peer it plays by hand."""
        sends, requests, replies, held = [], [], [], []

        class ListHost(ResidentEngine):
            def _peer_send(self, dst, kind, payload):
                sends.append((dst, kind, payload))

            def _peer_request(self, dst, kind, payload):
                requests.append((dst, kind, payload))
                return {
                    "tags": [order_key(1, 0, 0, 0)], "values": ["b"],
                    "read": ["b"], "states": {}, "visited": 1, "hops": 0,
                    "counters": {},
                }

            def _reply(self, conn, rid, result=None, error=None):
                replies.append((conn, rid, result, error))

            def _hold(self, conn, envelope, ts):
                held.append((conn, envelope, ts))
                return True

        gk = Gatekeeper(0, 1)
        shard = ShardServer(0, 1, TimelineOracle())
        engine = ListHost(ShardEndpoint(shard), 0, {"a": 0, "b": 1}.get)
        write = QueuedTransaction(
            gk.issue_timestamp(),
            (ops.CreateVertex("a"), ops.CreateEdge("ab", "a", "b")),
            seqno=0, tiebreak=0,
        )
        ts = gk.issue_timestamp()
        start = {"k": "r", "id": 9, "kind": "program_start", "p": ProgramStart(
            ts, 5, "bfs", (("a", params(depth=0), order_key(0)),)
        )}
        engine._dispatch("gk0", {"k": "b", "m": [("enqueue", (0, write))]})
        engine._dispatch("gk0", start)
        # No heartbeat after the stamp yet: held, by the host's choice.
        ((conn, envelope, waits_for),) = held
        assert (conn, waits_for, replies) == ("gk0", ts, [])
        nop = QueuedTransaction(gk.make_nop(), seqno=1, tiebreak=1)
        engine._dispatch("gk0", {"k": "b", "m": [("enqueue", (0, nop))]})
        assert shard.advance_to(ts)
        engine._dispatch(conn, envelope)
        engine.drain()
        # Round 0 ran here; b's hop and the next round's go left for
        # shard 1.
        assert [(dst, kind) for dst, kind, _p in sends] == [
            (1, "forward"), (1, "round_go"),
        ]
        engine._dispatch(None, {"k": "b", "m": [("round_report", {
            "q": 5, "round": 1, "worker": 1, "sent": {}, "halt": None,
            "processed": 1, "error": None,
        })]})
        engine.drain()
        assert [(dst, kind) for dst, kind, _p in requests] == [
            (1, "collect_result"),
        ]
        ((conn, rid, result, error),) = replies
        assert (conn, rid, error) == ("gk0", 9, None)
        assert result["results"] == ["a", "b"]
        assert result["read_set"] == ["a", "b"]


class ListHost(ResidentEngine):
    """A host that only appends to four lists (and answers a gather
    with an empty fragment), over a one-gatekeeper shard made ready for
    ``self.ts`` after ``operations`` applied."""

    def __init__(self, index, placement, operations=(), caching=False):
        self.sends, self.requests, self.replies, self.held = [], [], [], []
        shard = ShardServer(index, 1, TimelineOracle())
        super().__init__(
            ShardEndpoint(shard), index, placement.get, caching
        )
        gk = Gatekeeper(0, 1)
        write = QueuedTransaction(
            gk.issue_timestamp(), tuple(operations), seqno=0, tiebreak=0
        )
        self.ts = gk.issue_timestamp()
        nop = QueuedTransaction(gk.make_nop(), seqno=1, tiebreak=1)
        self._dispatch("gk0", {"k": "b", "m": [
            ("enqueue", (0, write)), ("enqueue", (0, nop)),
        ]})
        assert shard.advance_to(self.ts)

    def _peer_send(self, dst, kind, payload):
        self.sends.append((dst, kind, payload))

    def _peer_request(self, dst, kind, payload):
        self.requests.append((dst, kind, payload))
        return {
            "tags": [], "values": [], "read": [], "states": {},
            "visited": 0, "hops": 0, "counters": {},
        }

    def _reply(self, conn, rid, result=None, error=None):
        self.replies.append((conn, rid, result, error))

    def _hold(self, conn, envelope, ts):
        self.held.append((conn, envelope, ts))
        return True

    def go(self, query_id, round_no, expect, program="bfs"):
        return ("round_go", {
            "q": query_id, "round": round_no, "expect": expect,
            "program": program, "init": None, "ts": self.ts,
            "trace_id": None, "coordinator": 0, "budget": 100,
        })


class TestAFailedFrameFailsItsQuery:
    """A forward ``rows()`` refuses, or a hop index a key level cannot
    hold, ends one query by name — not the engine's ``drain()``, which
    for a shard worker is the process."""

    @pytest.mark.parametrize("forward_first", [True, False])
    def test_refused_forward_is_reported_at_the_round_go(self, forward_first):
        engine = ListHost(1, {"a": 0, "b": 1}, [ops.CreateVertex("b")])
        good = FrontierForward.from_rows(
            5, 1, [("b", params(depth=1), order_key(0, 0))]
        )
        refused = dataclasses.replace(good, keys=())
        messages = [("forward", refused), engine.go(5, 1, expect=1)]
        for message in messages if forward_first else reversed(messages):
            engine._dispatch(None, {"k": "b", "m": [message]})
            engine.drain()
        ((dst, kind, report),) = engine.sends
        assert (dst, kind) == (0, "round_report")
        assert report["error"] == (
            "malformed frontier forward: 1 handles, 0 keys, 4 index bytes"
        )
        assert (report["q"], report["round"], report["worker"]) == (5, 1, 1)
        assert (report["processed"], report["sent"], report["halt"]) == (
            0, {}, None
        )
        assert engine.resident.rounds_executed == 0
        assert engine.resident.hops_received == 0
        # The coordinator's clean-up gather finds nothing to keep ...
        engine._dispatch("shard0", {
            "k": "r", "id": 3, "kind": "collect_result",
            "p": {"q": 5, "halt_round": 0, "halt_key": b"",
                  "counters": False},
        })
        ((_conn, rid, fragment, error),) = engine.replies
        assert (rid, error, fragment["values"]) == (3, None, [])
        # ... and the engine serves the next query as if nothing happened.
        for message in (("forward", dataclasses.replace(good, query_id=6)),
                        engine.go(6, 1, expect=1)):
            engine._dispatch(None, {"k": "b", "m": [message]})
        engine.drain()
        _dst, _kind, report = engine.sends[-1]
        assert (report["q"], report["error"], report["processed"]) == (
            6, None, 1
        )

    def test_refused_forward_ends_the_program_on_the_twin(self, monkeypatch):
        """End to end on ``SimulatedWeaver``: the sender's columns lose
        a key, the receiving shard refuses them, the coordinator ends
        the query with the refusal's text and keeps serving."""
        sw = make(shards=3)
        handles = [f"n{i}" for i in range(12)]
        assert commit(sw, [ops.CreateVertex(h) for h in handles])["ok"]
        root = handles[0]
        far = next(
            h for h in handles
            if sw.mapping.lookup(h) != sw.mapping.lookup(root)
        )
        assert commit(sw, [ops.CreateEdge("e", root, far)])["ok"]
        intact = FrontierForward.from_rows.__func__

        def short_a_key(cls, query_id, round_no, rows):
            forward = intact(cls, query_id, round_no, rows)
            return dataclasses.replace(forward, keys=forward.keys[:-1])

        with monkeypatch.context() as patched:
            patched.setattr(
                FrontierForward, "from_rows", classmethod(short_a_key)
            )
            sw.submit_program(Bfs(), root, params(depth=0))
            with pytest.raises(
                ProgramError,
                match="^malformed frontier forward: 1 handles, 0 keys",
            ):
                sw.run_until_quiet()
        assert ask(sw, Bfs(), root, params(depth=0)).results == [root, far]

    def test_hop_index_beyond_a_key_level_fails_by_name(self, monkeypatch):
        """The bound of ``pack_level``, lowered so three hops cross it:
        the client sees ``ProgramError`` by name, not ``struct.error``'s
        text, and the engine is still there."""
        engine = ListHost(0, {"a": 0}, [ops.CreateVertex("a")] + [
            ops.CreateEdge(f"e{i}", "a", f"x{i}") for i in range(3)
        ])
        start = {"k": "r", "id": 9, "kind": "program_start", "p": ProgramStart(
            engine.ts, 5, "bfs", (("a", params(depth=0), order_key(0)),)
        )}
        monkeypatch.setattr(messages, "LEVEL_LIMIT", 2)
        engine._dispatch("gk0", dict(start))
        engine.drain()
        ((conn, rid, result, error),) = engine.replies
        assert (conn, rid, error) == ("gk0", 9, None)
        assert result == {"error": "more than 2**32 hops from one vertex"}
        with pytest.raises(ProgramError, match=r"2\*\*32 hops from one vertex"):
            WritePath._program_result(result)
        monkeypatch.setattr(messages, "LEVEL_LIMIT", 2**32)
        again = dataclasses.replace(start["p"], query_id=6)
        engine._dispatch("gk0", dict(start, id=10, p=again))
        engine.drain()
        assert engine.replies[-1][2]["results"] == ["a"]


class TestCountersRideOnRequest:
    """Only ``cache.put`` reads a fragment's change counters, so the
    coordinator asks for them only when it will cache."""

    @pytest.mark.parametrize("caching", [False, True])
    def test_the_gather_asks_only_when_the_coordinator_caches(self, caching):
        engine = ListHost(0, {"a": 0, "b": 1}, [
            ops.CreateVertex("a"), ops.CreateEdge("ab", "a", "b"),
        ], caching=caching)
        engine._dispatch("gk0", {
            "k": "r", "id": 9, "kind": "program_start", "p": ProgramStart(
                engine.ts, 5, "bfs", (("a", params(depth=0), order_key(0)),),
                cache_tail=("bfs", "depth=0"),
            ),
        })
        engine.drain()
        engine._dispatch(None, {"k": "b", "m": [("round_report", {
            "q": 5, "round": 1, "worker": 1, "sent": {}, "halt": None,
            "processed": 1, "error": None,
        })]})
        engine.drain()
        ((dst, kind, request),) = engine.requests
        assert (dst, kind, request["counters"]) == (
            1, "collect_result", caching
        )
        assert engine.replies[-1][2]["results"] == ["a"]
        if caching:
            assert len(engine.cache) == 1
        else:
            assert engine.cache is None

    @pytest.mark.parametrize("asked", [False, True])
    def test_a_fragment_snapshots_its_read_set_only_when_asked(self, asked):
        engine = ListHost(1, {"a": 0, "b": 1}, [ops.CreateVertex("b")])
        forward = FrontierForward.from_rows(
            5, 1, [("b", params(depth=1), order_key(0, 0))]
        )
        for message in (("forward", forward), engine.go(5, 1, expect=1)):
            engine._dispatch(None, {"k": "b", "m": [message]})
        engine.drain()
        engine._dispatch("shard0", {
            "k": "r", "id": 3, "kind": "collect_result",
            "p": {"q": 5, "halt_round": None, "halt_key": None,
                  "counters": asked},
        })
        fragment = engine.replies[-1][2]
        assert fragment["values"] == ["b"]
        assert fragment["tags"] == [order_key(1, 0, 0, 0)]
        assert fragment["counters"] == ({"b": 1} if asked else {})


class TestKeysAndColumnsOnTheTwin:
    """The 3-shard ``SimulatedWeaver`` twins of the cases
    ``test_program_resident.py`` runs on processes, against the same
    ``Weaver`` reference.  (No cached re-run here: the simulator hosts
    the engine with the shard-side program cache off.)"""

    @staticmethod
    def twins(edges_for):
        """``(db, sw, what edges_for returned after the edges)``, the
        edges loaded into both."""
        def config():
            return WeaverConfig(
                num_gatekeepers=2, num_shards=3, partitioner="hash"
            )

        db = Weaver(config())
        sw = SimulatedWeaver(config(), tau=200 * USEC, nop_period=100 * USEC)
        creates = [ops.CreateVertex(h) for h in POOL]
        assert commit(sw, creates)["ok"]
        edges, *roles = edges_for(sw.mapping.lookup)
        links = [
            ops.CreateEdge(f"edge{i}", src, dst)
            for i, (src, dst) in enumerate(edges)
        ]
        assert commit(sw, links)["ok"]
        for operations in (creates, links):
            tx = db.begin_transaction()
            for op in operations:
                tx.record(op)
            tx.commit()
        return db, sw, roles

    def test_halt_on_another_shard_filters_by_byte_key(self):
        db, sw, (root, target, unread) = self.twins(halting_edges)
        prm = params(target=target)
        reference = db.run_program(Reachability(), root, prm)
        assert reference.halted and not reference.read_set & unread
        result = ask(sw, Reachability(), root, prm)
        _assert_equivalent(result, reference)
        processed = sum(
            engine.resident.entries_processed
            for engine in sw._engines.values()
        )
        assert processed > result.vertices_visited

    def test_revisits_with_a_params_object_per_parent(self):
        db, sw, (root,) = self.twins(pagerank_edges)
        reference = db.run_program(pagerank(), root, params(mass=1.0))
        box = {}
        sw.submit_program(
            pagerank(), root, params(mass=1.0),
            callback=lambda r: box.update(r=r),
        )
        sw.run_until_quiet()
        _assert_equivalent(box["r"], reference)
        assert PushPageRank.scores(box["r"]) == PushPageRank.scores(
            reference
        )
