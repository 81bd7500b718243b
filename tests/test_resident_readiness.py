"""Shard-side readiness on the resident engine, driven by hand.

The client never asks a shard whether it is ready: it writes the
heartbeats and a one-way ``advance_to`` to every shard's socket, then
``program_start`` to the coordinator.  A peer can therefore see the
coordinator's ``forward``/``round_go`` before it has read its own client
frames.  These tests feed one ``_ResidentEngine`` its messages in a
chosen order — no event loop, no second process — and check that it
(a) catches up on the client socket and answers exactly as it does
under in-order delivery, and (b) without heartbeats fails the query by
name inside the deadline instead of snapshotting or hanging.  The same
rig pins what the participant inherits from the one round body
(``run_round``): the halt / missing-vertex / dedup rules and the visit
budget carried by ``round_go``.
"""

import socket
import time

import pytest

from repro.cluster import wire
from repro.cluster.messages import FrontierForward, QueuedTransaction
from repro.cluster.shard import ShardServer
from repro.cluster.worker import BufferTracer, ShardEndpoint, _ResidentEngine
from repro.core.gatekeeper import Gatekeeper, sync_announce_all
from repro.core.oracle import TimelineOracle
from repro.db.operations import CreateVertex, SetVertexProperty
from repro.programs.library import PROGRAM_REGISTRY

from .test_program_differential import HaltOnMissing
from .wire_fixtures import order_key

QUERY = 7


class Rig:
    """Shard 1's engine, a client socket to write to, and a listener
    standing in for the coordinator (shard 0) it reports to."""

    def __init__(self, tmp_path):
        self.gks = [Gatekeeper(i, 2) for i in range(2)]
        shard = ShardServer(1, 2, TimelineOracle())
        shard.tracer = BufferTracer()
        self.client, worker_end = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_STREAM
        )
        coordinator_path = str(tmp_path / "peer0.sock")
        self.coordinator = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.coordinator.bind(coordinator_path)
        self.coordinator.listen(4)
        self.coordinator.settimeout(10.0)
        self.engine = _ResidentEngine(
            ShardEndpoint(shard), worker_end, 1,
            peer_paths={0: coordinator_path}, placement={"w": 1},
        )
        # What run() sets up before its first select.
        self.engine.buffers[worker_end] = wire.FrameBuffer()
        self._accepted = None
        self._reply_here, self._reply_there = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_STREAM
        )
        self._reply_there.settimeout(10.0)

    def close(self):
        self.engine.transport.close()
        for sock in (self.client, self.engine.client, self.coordinator,
                     self._accepted, self._reply_here, self._reply_there):
            if sock is not None:
                sock.close()

    # -- the client's side ------------------------------------------------

    def write_and_stamp(self):
        """Commit a write to vertices ``w`` and ``v``, then stamp a
        program after it; returns the program timestamp."""
        gk0, gk1 = self.gks
        self.write = QueuedTransaction(
            gk0.issue_timestamp(),
            (CreateVertex("w"), SetVertexProperty("w", "color", "red"),
             CreateVertex("v")),
            seqno=0, tiebreak=0,
        )
        sync_announce_all(self.gks)
        ts = gk1.issue_timestamp()
        sync_announce_all(self.gks)
        return ts

    def send_client_batch(self, ts):
        """The frame the client flushes before ``program_start``: the
        write, one heartbeat per gatekeeper, the one-way advance."""
        gk0, gk1 = self.gks
        batch = [
            ("enqueue", (0, self.write)),
            ("enqueue", (0, QueuedTransaction(
                gk0.make_nop(), seqno=1, tiebreak=1))),
            ("enqueue", (1, QueuedTransaction(
                gk1.make_nop(), seqno=0, tiebreak=2))),
            ("advance_to", ts),
        ]
        wire.write_frame(self.client, wire.encode({"k": "b", "m": batch}))

    # -- the coordinator's side ------------------------------------------

    def peer_traffic(self, ts, hops=(("w", None, order_key(0)),),
                     program="get_node"):
        """Round 0 as shard 0 sends it: the frontier, then the go."""
        forward = FrontierForward.from_rows(QUERY, 0, hops)
        go = {
            "q": QUERY, "round": 0, "expect": len(hops), "program": program,
            "init": None, "ts": ts, "trace_id": None, "coordinator": 0,
            "budget": 100,
        }
        return [
            {"k": "b", "m": [("forward", forward)]},
            {"k": "b", "m": [("round_go", go)]},
        ]

    def drive(self):
        engine = self.engine
        while engine.pending:
            engine._dispatch(*engine.pending.popleft())

    def read_report(self):
        if self._accepted is None:
            self._accepted, _ = self.coordinator.accept()
            self._accepted.settimeout(10.0)
        envelope = wire.decode(wire.read_frame(self._accepted))
        ((kind, report),) = envelope["m"]
        assert kind == "round_report"
        return report

    def collect_fragment(self, halt_round=None, halt_key=None):
        self.engine._dispatch(self._reply_here, {
            "k": "r", "id": 1, "kind": "collect_result",
            "p": {"q": QUERY, "halt_round": halt_round,
                  "halt_key": halt_key},
        })
        return wire.decode(wire.read_frame(self._reply_there))["p"]


@pytest.fixture
def rig(tmp_path):
    rig = Rig(tmp_path)
    yield rig
    rig.close()


def run_round(rig, peer_first):
    ts = rig.write_and_stamp()
    rig.send_client_batch(ts)           # waiting in the socket buffer
    if not peer_first:
        rig.engine._pump(rig.engine.client)
        rig.drive()
    for envelope in rig.peer_traffic(ts):
        rig.engine._dispatch(None, envelope)
    if peer_first:
        # Held, not run: the go waits behind the client's frame.
        assert rig.engine.resident.rounds_executed == 0
        (client, _batch), (_none, held) = rig.engine.pending
        assert client is rig.engine.client
        assert held["m"][0][0] == "round_go"
    rig.drive()
    report = rig.read_report()
    return report, rig.collect_fragment()


def test_peer_traffic_ahead_of_heartbeats_matches_ordered_delivery(tmp_path):
    outcomes = []
    for peer_first in (False, True):
        (tmp_path / str(peer_first)).mkdir()
        rig = Rig(tmp_path / str(peer_first))
        try:
            outcomes.append(run_round(rig, peer_first))
            assert rig.engine.resident.rounds_executed == 1
        finally:
            rig.close()
    (ordered_report, ordered), (early_report, early) = outcomes
    assert ordered_report["error"] is None
    assert ordered_report["processed"] == 1
    assert early_report == ordered_report
    assert early == ordered
    # ... and it is the post-write snapshot, not a stale one.
    assert early["tags"] == [order_key(0, 0, 0)]       # round, key, seq
    (value,) = early["values"]
    assert value["properties"] == {"color": "red"}


def test_participant_round_obeys_the_round_body_rules(rig, monkeypatch):
    """The resident participant runs the same ``run_round`` the executor
    does, so the frontier ``test_program_differential.py`` pins there
    (order keys added) has the same outcome here: the missing vertex
    halts without ending the round, ``w`` observes it and is the last
    entry run, and the repeated hop to ``w`` never resolved."""
    monkeypatch.setitem(PROGRAM_REGISTRY, HaltOnMissing.name, HaltOnMissing)
    ts = rig.write_and_stamp()
    rig.send_client_batch(ts)
    hops = tuple(
        (handle, params, order_key(i))
        for i, (handle, params) in enumerate(
            [("ghost", None), ("w", None), ("w", None), ("v", None)]
        )
    )
    for envelope in rig.peer_traffic(ts, hops, HaltOnMissing.name):
        rig.engine._dispatch(None, envelope)
    rig.drive()
    report = rig.read_report()
    assert report["error"] is None
    assert (report["halt"], report["processed"]) == (order_key(1), 2)
    assert report["sent"] == {}
    assert rig.engine.prog_stats.dedup_hits == 1
    fragment = rig.collect_fragment(halt_round=0, halt_key=order_key(1))
    assert fragment["values"] == ["w"]
    assert fragment["read"] == ["ghost", "w"]
    assert fragment["visited"] == 1


def test_round_go_budget_stops_the_round_by_name(rig):
    """The coordinator's remaining visit budget rides ``round_go``; the
    participant stops on it instead of running the whole slice."""
    ts = rig.write_and_stamp()
    rig.send_client_batch(ts)
    forward, go = rig.peer_traffic(
        ts, (("w", None, order_key(0)), ("v", None, order_key(1)))
    )
    go["m"][0][1]["budget"] = 1
    for envelope in (forward, go):
        rig.engine._dispatch(None, envelope)
    rig.drive()
    report = rig.read_report()
    assert report["error"] == "visit budget exhausted"
    assert rig.engine.resident.entries_processed == 1


def test_write_without_heartbeats_fails_by_name_within_deadline(rig):
    rig.engine.READY_DEADLINE = 0.3
    ts = rig.write_and_stamp()
    # The write arrives but no heartbeat and no advance: the shard can
    # not know that nothing earlier is still on its way.
    wire.write_frame(rig.client, wire.encode(
        {"k": "b", "m": [("enqueue", (0, rig.write))]}
    ))
    started = time.monotonic()
    for envelope in rig.peer_traffic(ts):
        rig.engine._dispatch(None, envelope)
    rig.drive()
    report = rig.read_report()
    elapsed = time.monotonic() - started
    assert "shard1 not ready for" in report["error"]
    assert "despite heartbeats" in report["error"]
    assert report["processed"] == 0
    assert 0.3 <= elapsed < 5.0
    # Nothing ran and nothing was read.
    assert rig.engine.resident.rounds_executed == 0
    assert rig.engine.worker.shard.stats.vertices_read == 0
    assert not rig.engine.pending

