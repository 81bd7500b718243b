"""The resident engine's unhappy paths and its deepest programs, driven
by hand: no event loop, no second process.

* A program handler that raises — ``round_go``, ``forward``,
  ``round_report`` — fails its own query by name, and the engine answers
  the next request.  A non-program one-way kind that raises still ends
  the host, loudly.
* A participant whose socket closes mid-round is pinged once
  ``STALL_DEADLINE`` has passed without its report, and the query fails
  with "worker shard1 died mid-program" instead of waiting out the
  client's ``REPLY_DEADLINE``.
* A peer frame that does not decode (a garbage body, a length over
  ``MAX_FRAME_BYTES``, or a value that is not an envelope) closes that
  connection only: the worker keeps
  serving, and the round whose hops it carried fails by name once its
  go has waited ``STALL_DEADLINE``.  The same bytes on the client's
  connection end the worker, and the client's ``TransportError`` names
  the shard.
* The coordinator's own round is a queued handler call, never a nested
  one: a 3,000-round chain completes with the executor's answer on one
  shard, where every round is the coordinator's own, and on two that
  own the chain's vertices alternately.
"""

import dataclasses
import select
import selectors
import socket
import struct
import threading
import time

import pytest

from repro.cluster import wire
from repro.cluster.messages import FrontierForward, ProgramStart, QueuedTransaction
from repro.cluster.shard import ShardServer
from repro.cluster.transport import ProcessTransport, TransportError
from repro.cluster.worker import (
    BufferTracer,
    ResidentEngine,
    ShardEndpoint,
    _ResidentEngine,
    shard_worker_main,
)
from repro.core.gatekeeper import Gatekeeper
from repro.core.oracle import TimelineOracle
from repro.db import operations as ops
from repro.programs import Bfs, params
from repro.programs.framework import ProgramExecutor
from repro.programs.routing import ShardSnapshotResolver

from .test_resident_readiness import QUERY, Rig
from .test_sim_deployment import ListHost
from .wire_fixtures import order_key


@pytest.fixture
def rig(tmp_path):
    rig = Rig(tmp_path)
    yield rig
    rig.close()


def traffic(ts, qid, forward=None):
    """Round 0 of query ``qid`` as shard 0 sends it to shard 1: a hop
    to ``w``, then the go."""
    forward = forward or FrontierForward.from_rows(
        qid, 0, [("w", None, order_key(0))]
    )
    go = {
        "q": qid, "round": 0, "expect": 1, "program": "get_node",
        "init": None, "ts": ts, "trace_id": None, "coordinator": 0,
        "budget": 100,
    }
    return forward, go


def deliver(rig, *messages):
    for message in messages:
        rig.engine._dispatch(None, {"k": "b", "m": [message]})
    rig.drive()


def answers_ping(rig, rid):
    rig.engine._dispatch(rig._reply_here, {
        "k": "r", "id": rid, "kind": "ping", "p": None,
    })
    reply = wire.decode(wire.read_frame(rig._reply_there))
    return (reply["id"], reply["p"]) == (rid, True)


class TestARaisingHandlerFailsItsQuery:
    """Shard 1 of :class:`Rig` is the participant; the coordinator it
    reports to is the rig's listener."""

    @pytest.mark.parametrize("spoil, text", [
        pytest.param(
            lambda go: go.update(init={"bogus": 1}),
            "program 'get_node' refused its init: TypeError(",
            id="init-the-class-refuses",
        ),
        pytest.param(
            lambda go: go.pop("budget"),
            "round_go failed: KeyError('budget')",
            id="go-without-a-budget",
        ),
    ])
    def test_round_go(self, rig, spoil, text):
        ts = rig.write_and_stamp()
        rig.send_client_batch(ts)
        forward, go = traffic(ts, QUERY)
        spoil(go)
        deliver(rig, ("forward", forward), ("round_go", go))
        report = rig.read_report()
        assert report["error"].startswith(text), report["error"]
        assert (report["q"], report["round"], report["worker"]) == (
            QUERY, 0, 1
        )
        assert (report["processed"], report["sent"]) == (0, {})
        assert rig.engine.running and answers_ping(rig, 5)
        # ... and the next query runs as if nothing happened.
        forward, go = traffic(ts, QUERY + 1)
        deliver(rig, ("forward", forward), ("round_go", go))
        report = rig.read_report()
        assert (report["q"], report["error"], report["processed"]) == (
            QUERY + 1, None, 1
        )

    def test_forward(self, rig):
        """A forward whose columns raise something other than the named
        refusal still fails only its query, at its round's go."""
        ts = rig.write_and_stamp()
        rig.send_client_batch(ts)
        forward, go = traffic(ts, QUERY)
        broken = dataclasses.replace(forward, handles=None)
        deliver(rig, ("forward", broken), ("round_go", go))
        report = rig.read_report()
        assert report["error"].startswith("forward failed: TypeError("), (
            report["error"]
        )
        assert rig.engine.resident.rounds_executed == 0
        assert answers_ping(rig, 6)

    def test_round_report(self):
        """At the coordinator: a report it cannot fold ends the query
        with a reply that names it, and the next program is answered."""
        engine = ListHost(0, {"a": 0, "b": 1}, [
            ops.CreateVertex("a"), ops.CreateEdge("ab", "a", "b"),
        ])
        engine._dispatch("gk0", {
            "k": "r", "id": 9, "kind": "program_start", "p": ProgramStart(
                engine.ts, 5, "bfs", (("a", params(depth=0), order_key(0)),)
            ),
        })
        engine.drain()
        assert [kind for _dst, kind, _p in engine.sends] == [
            "forward", "round_go",
        ]
        engine._dispatch("shard1", {"k": "b", "m": [("round_report", {
            "q": 5, "round": 1, "worker": 1, "sent": None, "halt": None,
            "processed": 1, "error": None,
        })]})
        engine.drain()
        ((_conn, rid, result, error),) = engine.replies
        assert (rid, error) == (9, None)
        assert result["error"].startswith(
            "round_report failed: AttributeError("
        ), result
        assert [kind for _dst, kind, _p in engine.requests] == [
            "collect_result",
        ]
        assert not engine.coordinated
        engine._dispatch("gk0", {
            "k": "r", "id": 10, "kind": "program_start", "p": ProgramStart(
                engine.ts, 6, "get_node", (("a", None, order_key(0)),)
            ),
        })
        engine.drain()
        assert engine.replies[-1][2]["results"][0]["handle"] == "a"

    def test_a_non_program_kind_still_ends_the_host(self, rig):
        with pytest.raises(TypeError):
            rig.engine._dispatch(None, {"k": "b", "m": [("enqueue", None)]})


# -- a participant that dies mid-round ---------------------------------------


def test_a_stalled_participant_fails_the_query_by_name(tmp_path):
    """Shard 0 coordinates a BFS whose second round is shard 1's; shard 1
    (a listener here) takes the frames and dies.  ``STALL_DEADLINE`` after
    the round went out, the coordinator's probe finds it gone."""
    gk = Gatekeeper(0, 1)
    shard = ShardServer(0, 1, TimelineOracle())
    shard.tracer = BufferTracer()
    client, worker_end = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    peer_path = str(tmp_path / "peer1.sock")
    peer = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    peer.bind(peer_path)
    peer.listen(4)
    peer.settimeout(10.0)
    engine = _ResidentEngine(
        ShardEndpoint(shard), worker_end, 0,
        peer_paths={1: peer_path}, placement={"a": 0, "b": 1},
    )
    engine.STALL_DEADLINE = 0.3
    try:
        write = QueuedTransaction(gk.issue_timestamp(), (
            ops.CreateVertex("a"), ops.CreateEdge("ab", "a", "b"),
        ), seqno=0, tiebreak=0)
        ts = gk.issue_timestamp()
        nop = QueuedTransaction(gk.make_nop(), seqno=1, tiebreak=1)
        engine._dispatch(worker_end, {"k": "b", "m": [
            ("enqueue", (0, write)), ("enqueue", (0, nop)),
            ("advance_to", ts),
        ]})
        engine._dispatch(worker_end, {
            "k": "r", "id": 3, "kind": "program_start", "p": ProgramStart(
                ts, QUERY, "bfs", (("a", params(depth=0), order_key(0)),)
            ),
        })
        engine.drain()
        issued = time.monotonic()
        (coord,) = engine.coordinated.values()
        assert (coord.rounds_issued, coord.awaiting) == (2, {1})
        accepted, _ = peer.accept()
        accepted.close()
        peer.close()
        # What run() does on every idle select, here every 20 ms.
        while not select.select([client], [], [], 0.02)[0]:
            engine._check_stalled()
            assert time.monotonic() - issued < 5.0, "no failure reply"
        failed = time.monotonic() - issued
        reply = wire.decode(wire.read_frame(client))
        assert (reply["id"], reply["p"]) == (
            3, {"error": "worker shard1 died mid-program"}
        )
        assert engine.STALL_DEADLINE <= failed < engine.STALL_DEADLINE + 1.0
        assert not engine.coordinated and engine.running
    finally:
        engine.transport.close()
        for sock in (client, worker_end, peer):
            sock.close()


# -- a frame that does not decode ----------------------------------------------

CORRUPT = [
    pytest.param(struct.pack(">I", 5) + b"\xff" * 5, id="garbage-body"),
    pytest.param(
        struct.pack(">I", wire.MAX_FRAME_BYTES + 1), id="over-max-length"
    ),
    pytest.param(
        struct.pack(">I", len(wire.encode(7))) + wire.encode(7),
        id="not-an-envelope",
    ),
    pytest.param(
        struct.pack(">I", len(wire.encode(["ping", None])))
        + wire.encode(["ping", None]),
        id="a-list-not-an-envelope",
    ),
]


@pytest.mark.parametrize("frame", CORRUPT)
def test_a_corrupt_peer_frame_closes_that_connection_only(rig, frame):
    """Shard 1 awaits a hop from a peer; the peer's frame is garbage.
    The connection goes, the worker answers, and the round fails by name
    ``STALL_DEADLINE`` after its go first found itself short."""
    engine = rig.engine
    engine.STALL_DEADLINE = 0.3
    ts = rig.write_and_stamp()
    rig.send_client_batch(ts)
    _lost, go = traffic(ts, QUERY)
    deliver(rig, ("round_go", go))
    peer, accepted = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    # What run() does for a peer it accepts.
    engine.sel.register(accepted, selectors.EVENT_READ)
    engine.buffers[accepted] = wire.FrameBuffer()
    try:
        peer.sendall(frame)
        engine._pump(accepted)
        assert accepted.fileno() == -1 and accepted not in engine.buffers
        assert engine.running and answers_ping(rig, 7)
        started = time.monotonic()
        engine._check_stalled()         # the go is seen short ...
        while time.monotonic() - started < engine.STALL_DEADLINE:
            time.sleep(0.05)
        engine._check_stalled()         # ... and one deadline later fails
        report = rig.read_report()
        assert report["error"] == "round 0: hops never arrived"
        assert (report["q"], report["round"], report["worker"]) == (
            QUERY, 0, 1
        )
        assert answers_ping(rig, 8)
    finally:
        peer.close()


def test_a_starved_go_fails_while_other_traffic_flows(rig):
    """``run()`` itself, with a ping on the client's connection every
    50 ms so its select never comes back empty: the go whose hop never
    comes still fails by name, the scan being on a timer."""
    engine = rig.engine
    engine.STALL_DEADLINE = 0.3
    ts = rig.write_and_stamp()
    rig.send_client_batch(ts)
    _lost, go = traffic(ts, QUERY)
    wire.write_frame(
        rig.client, wire.encode({"k": "b", "m": [("round_go", go)]})
    )
    thread = threading.Thread(target=engine.run)
    thread.start()
    started = time.monotonic()
    try:
        rig.client.settimeout(5.0)
        rid = 100
        while not select.select([rig.coordinator], [], [], 0.05)[0]:
            rid += 1
            wire.write_frame(rig.client, wire.encode(
                {"k": "r", "id": rid, "kind": "ping", "p": None}
            ))
            assert wire.decode(wire.read_frame(rig.client))["id"] == rid
            assert time.monotonic() - started < 5.0, "no failure report"
        report = rig.read_report()
        assert report["error"] == "round 0: hops never arrived"
        # Seen short at the first scan, failed at the first scan one
        # deadline later: scans are a second apart.
        assert time.monotonic() - started < engine.STALL_DEADLINE + 2.5
    finally:
        rig.client.shutdown(socket.SHUT_WR)     # EOF ends the worker
        thread.join(5.0)
    assert not thread.is_alive()


@pytest.mark.parametrize("frame", CORRUPT)
def test_a_corrupt_client_frame_ends_the_worker(frame):
    """The client's stream carries what makes the shard ready: a frame
    there that does not decode ends the worker, and the client's next
    read fails naming the shard instead of waiting ``REPLY_DEADLINE``."""
    client, worker_end = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    ended = []

    def worker():
        try:
            shard_worker_main(worker_end, 1, 1)
        except wire.WireError as exc:
            ended.append(exc)

    thread = threading.Thread(target=worker)
    thread.start()
    transport = ProcessTransport()
    transport.add_channel("shard1", client)
    try:
        client.sendall(frame)
        started = time.monotonic()
        with pytest.raises(TransportError, match="'shard1' broke") as info:
            transport.request("client", "shard1", "ping", None)
        assert info.value.channel == "shard1"
        assert time.monotonic() - started < 5.0
        thread.join(5.0)
        assert not thread.is_alive() and len(ended) == 1
    finally:
        transport.close()
        thread.join(5.0)


# -- programs thousands of rounds deep -----------------------------------------

CHAIN = 3000


class Peers(ResidentEngine):
    """One of several engines wired to each other by hand: a send is a
    frame queued at the peer, a request a direct call, as on the twin."""

    def __init__(self, index, engines, owner_of, ready):
        self.engines, self.replies = engines, []
        super().__init__(ShardEndpoint(ready()), index, owner_of)

    def _peer_send(self, dst, kind, payload):
        self.engines[dst].pending.append(
            (f"shard{self.index}", {"k": "b", "m": [(kind, payload)]})
        )

    def _peer_request(self, dst, kind, payload):
        return self.engines[dst]._handle_request(kind, payload)

    def _reply(self, conn, rid, result=None, error=None):
        self.replies.append((rid, result, error))

    def _hold(self, conn, envelope, ts):
        raise AssertionError("every shard is ready before the program")


class TestDeepProgramsDoNotRecurse:

    @pytest.fixture(scope="class")
    def chain(self):
        """A ready shard factory over the path v0 -> v1 -> ... and the
        program timestamp."""
        gk = Gatekeeper(0, 1)
        operations = [ops.CreateVertex(f"v{i}") for i in range(CHAIN)] + [
            ops.CreateEdge(f"e{i}", f"v{i}", f"v{i + 1}")
            for i in range(CHAIN - 1)
        ]
        write = QueuedTransaction(
            gk.issue_timestamp(), tuple(operations), seqno=0, tiebreak=0
        )
        ts = gk.issue_timestamp()
        nop = QueuedTransaction(gk.make_nop(), seqno=1, tiebreak=1)

        def ready():
            # Every shard holds the whole chain; each resolves only the
            # vertices routed to it.
            shard = ShardServer(0, 1, TimelineOracle())
            shard.enqueue(0, write)
            shard.enqueue(0, nop)
            assert shard.advance_to(ts)
            return shard

        return ready, ts

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_chain_of_rounds(self, chain, shards):
        ready, ts = chain
        engines = {}

        def owner_of(handle):
            return int(handle[1:]) % shards

        for index in range(shards):
            engines[index] = Peers(index, engines, owner_of, ready)
        coordinator = engines[0]
        coordinator._dispatch("client", {
            "k": "r", "id": 1, "kind": "program_start", "p": ProgramStart(
                ts, QUERY, "bfs", (("v0", params(depth=0), order_key(0)),)
            ),
        })
        started = time.monotonic()
        while any(engine.pending for engine in engines.values()):
            for engine in engines.values():
                engine.drain()
        assert time.monotonic() - started < 2.0
        ((rid, result, error),) = coordinator.replies
        assert (rid, error) == (1, None) and "error" not in result
        expected = ProgramExecutor().execute(
            Bfs(), [("v0", params(depth=0))],
            ShardSnapshotResolver(ts, lambda handle: 0, [ready()]), ts,
        )
        assert result["results"] == expected.results
        assert len(result["results"]) == CHAIN
        assert set(result["read_set"]) == expected.read_set
        assert result["rounds"] == expected.rounds == CHAIN
        assert (result["vertices_visited"], result["hops"]) == (
            expected.vertices_visited, expected.hops
        )
        rounds = sum(
            engine.resident.rounds_executed for engine in engines.values()
        )
        assert rounds == CHAIN
