"""The transport contract, against all three implementations.

LocalTransport is the synchronous reference; SimTransport must preserve
the simulated network's per-kind accounting and latency charging; the
ProcessTransport tests run against a real socketpair serviced by an
in-thread echo worker speaking wire frames — FIFO of buffered sends
relative to requests, in-flight batching, request pipelining, error
envelopes, and the per-channel queue-depth gauges.
"""

import socket
import threading

import pytest

from repro.cluster import wire
from repro.cluster.transport import (
    REPLY_DEADLINE,
    LocalTransport,
    ProcessTransport,
    SimTransport,
    TransportError,
)
from repro.cluster.messages import QueuedTransaction
from repro.core.vclock import VectorTimestamp
from repro.db.operations import CreateVertex
from repro.obs import MetricsRegistry
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.network import Network
from repro.sim.simulator import Simulator


# -- LocalTransport -------------------------------------------------------


def test_local_send_and_request():
    transport = LocalTransport()
    log = []
    transport.register("node", lambda src, kind, p: log.append(
        (src, kind, p)) or f"re:{p}")
    transport.send("a", "node", "ping", 1)
    replies = []
    value = transport.request("a", "node", "ask", 2, on_reply=replies.append)
    assert log == [("a", "ping", 1), ("a", "ask", 2)]
    assert value == "re:2"
    assert replies == ["re:2"]
    assert transport.stats.messages_sent == 2
    assert transport.stats.requests == 1


def test_local_unregistered_destination_raises():
    with pytest.raises(TransportError):
        LocalTransport().send("a", "ghost", "ping", None)


def test_local_request_all_replies_in_destination_order():
    transport = LocalTransport()
    for name in ("x", "y", "z"):
        transport.register(name, lambda s, k, p, name=name: (name, k, p))
    calls = [("z", "ask", 1), ("x", "ask", 2), ("y", "tell", 3)]
    assert transport.request_all("a", calls) == [
        ("z", "ask", 1), ("x", "ask", 2), ("y", "tell", 3),
    ]
    assert transport.stats.requests == 3
    assert transport.request_all("a", []) == []


def test_local_request_all_names_the_unregistered_channel():
    transport = LocalTransport()
    transport.register("x", lambda s, k, p: p)
    with pytest.raises(TransportError) as info:
        transport.request_all("a", [("x", "ask", 1), ("ghost", "ask", 2)])
    assert info.value.channel == "ghost"
    assert "ghost" in str(info.value)


def test_broadcast_fans_out():
    transport = LocalTransport()
    got = []
    transport.register("x", lambda s, k, p: got.append(("x", p)))
    transport.register("y", lambda s, k, p: got.append(("y", p)))
    transport.broadcast("a", ["x", "y"], "hb", 7)
    assert got == [("x", 7), ("y", 7)]


# -- SimTransport ---------------------------------------------------------


def test_sim_send_pays_latency_and_counts_kind():
    simulator = Simulator()
    network = Network(simulator, latency=0.5)
    transport = SimTransport(network)
    got = []
    transport.register("shard0", lambda s, k, p: got.append((s, k, p)))
    transport.send("gk0", "shard0", "nop", 11)
    assert got == []  # in flight, not delivered synchronously
    simulator.run(until=1.0)
    assert got == [("gk0", "nop", 11)]
    assert network.stats.count("nop") == 1


def test_sim_enqueue_is_counted_and_faulted_as_tx_or_nop():
    # The coordinator's write path sends every shard-bound message as
    # "enqueue"; the network still tells heartbeats from transactions.
    simulator = Simulator()
    plan = FaultPlan(seed=1).duplicate(1.0, kinds=frozenset({"nop"}))
    network = Network(
        simulator, latency=0.5, fault_injector=FaultInjector(plan)
    )
    transport = SimTransport(network)
    got = []
    transport.register("shard0", lambda s, k, p: got.append((k, p[1])))
    ts = VectorTimestamp(0, (1, 0), 0)
    nop = QueuedTransaction(ts)
    tx = QueuedTransaction(ts, (CreateVertex("a"),))
    transport.send("gk0", "shard0", "enqueue", (0, nop))
    transport.send("gk0", "shard0", "enqueue", (0, tx))
    simulator.run(until=1.0)
    assert network.stats.count("nop") == 1
    assert network.stats.count("tx") == 1
    assert network.stats.count("enqueue") == 0
    # The kinds={"nop"} rule fired on the heartbeat only; receivers are
    # still handed the contract's kind.
    assert network.stats.faults == {"duplicate": 1}
    assert got == [("enqueue", nop), ("enqueue", nop), ("enqueue", tx)]


def test_sim_request_replies_after_round_trip():
    simulator = Simulator()
    network = Network(simulator, latency=0.5)
    transport = SimTransport(network)
    transport.register("shard0", lambda s, k, p: p * 2)
    replies = []
    assert transport.request(
        "client", "shard0", "ask", 21, on_reply=replies.append
    ) is None
    simulator.run(until=0.75)
    assert replies == []  # delivered, but the reply is still in flight
    simulator.run(until=1.25)
    assert replies == [42]
    assert network.stats.count("ask") == 1
    assert network.stats.count("ask-reply") == 1


def test_sim_dead_letter_is_dropped():
    simulator = Simulator()
    transport = SimTransport(Network(simulator, latency=0.1))
    transport.send("a", "nobody", "x", 1)
    simulator.run(until=1.0)  # no handler: delivery is a no-op


# -- ProcessTransport -----------------------------------------------------


def echo_worker(sock, received):
    """Minimal wire-speaking worker: records one-way messages in order,
    replies to requests (pipelined-safe), errors on kind 'boom', and
    piggybacks events on kind 'traced', and answers kind 'garbage' with
    a frame that does not decode."""
    while True:
        try:
            envelope = wire.decode(wire.read_frame(sock))
        except (wire.WireError, OSError):
            return
        # One-way messages: a batch frame, or riding a request frame
        # ahead of the request itself.
        for kind, payload in envelope.get("m", ()):
            received.append((kind, payload))
        if envelope["k"] == "b":
            continue
        rid = envelope["id"]
        kind = envelope["kind"]
        received.append(("request:" + kind, envelope.get("p")))
        if kind == "garbage":
            # A frame that is not a wire payload: right version, no value.
            wire.write_frame(sock, bytes([wire.WIRE_VERSION]) + b"s\x09ab")
            continue
        if kind == "boom":
            reply = {"k": "e", "id": rid, "e": "kaboom"}
        elif kind == "traced":
            reply = {"k": "p", "id": rid, "p": None,
                     "ev": [(1, "shard.apply", "shard0", {"x": 1})]}
        elif kind == "stop":
            reply = {"k": "p", "id": rid, "p": True}
        else:
            reply = {"k": "p", "id": rid, "p": envelope.get("p")}
        try:
            wire.write_frame(sock, wire.encode(reply))
        except OSError:
            return
        if kind == "stop":
            return


@pytest.fixture
def process_transport():
    registry = MetricsRegistry()
    transport = ProcessTransport(registry=registry, timeout=30.0)
    workers = {}

    def add(name):
        parent, child = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_STREAM
        )
        received = []
        thread = threading.Thread(
            target=echo_worker, args=(child, received), daemon=True
        )
        thread.start()
        transport.add_channel(name, parent)
        workers[name] = (received, thread, child)
        return received

    yield transport, registry, add
    transport.close()
    for received, thread, child in workers.values():
        child.close()
        thread.join(timeout=5)


def test_process_sends_flush_before_request_fifo(process_transport):
    transport, _registry, add = process_transport
    received = add("w0")
    transport.send("gk0", "w0", "enqueue", 1)
    transport.send("gk1", "w0", "enqueue", 2)
    assert received == []  # buffered, nothing on the wire yet
    reply = transport.request("client", "w0", "ask", "now")
    assert reply == "now"
    # The buffered sends rode inside the request frame — one frame out,
    # one back — and were delivered first, in order.
    assert received == [
        ("enqueue", 1), ("enqueue", 2), ("request:ask", "now")
    ]
    assert transport.stats.frames_sent == 1
    assert transport.stats.frames_received == 1
    assert transport.stats.batches_sent == 1
    assert transport.stats.batched_messages == 2
    # FIFO holds across frames too: an explicit flush, then more sends
    # carried by the next request.
    transport.send("gk0", "w0", "enqueue", 3)
    transport.flush("w0")
    transport.send("gk0", "w0", "enqueue", 4)
    transport.request("client", "w0", "ask", "again")
    assert received[3:] == [
        ("enqueue", 3), ("enqueue", 4), ("request:ask", "again")
    ]
    assert transport.stats.frames_sent == 3


def test_process_request_pipelining_counts_overlap(process_transport):
    transport, _registry, add = process_transport
    add("w0")
    add("w1")
    replies = transport.request_all(
        "client", [("w0", "ask", 1), ("w1", "ask", 2)]
    )
    assert replies == [1, 2]
    # The second request was written while the first was still in
    # flight: that overlap is exactly what the counter measures.
    assert transport.stats.requests == 2
    assert transport.stats.requests_pipelined == 1
    # A lone request afterwards overlaps nothing.
    transport.request("client", "w0", "ask", 3)
    assert transport.stats.requests_pipelined == 1


def test_process_queue_depth_gauges(process_transport):
    transport, registry, add = process_transport
    add("w0")
    transport.send("gk0", "w0", "enqueue", 1)
    transport.send("gk0", "w0", "enqueue", 2)
    assert registry.snapshot()["transport.queue_depth.w0"] == 2
    transport.flush("w0")
    assert registry.snapshot()["transport.queue_depth.w0"] == 0


def test_process_error_envelope_raises(process_transport):
    transport, _registry, add = process_transport
    add("w0")
    with pytest.raises(TransportError, match="kaboom"):
        transport.request("client", "w0", "boom", None)
    # The channel survives a worker-reported error.
    assert transport.request("client", "w0", "ask", 5) == 5


def test_process_corrupt_reply_kills_the_channel_by_name(process_transport):
    """A reply that does not decode surfaces as a TransportError naming
    the channel — not a raw codec exception — and the channel is dead:
    the stream's state is unknown after a bad frame."""
    transport, _registry, add = process_transport
    add("w0")
    with pytest.raises(TransportError, match="'w0'") as caught:
        transport.request("client", "w0", "garbage", None)
    assert isinstance(caught.value.__cause__, wire.WireError)
    with pytest.raises(TransportError, match="no live channel"):
        transport.send("client", "w0", "enqueue", 1)


def test_process_silent_worker_fails_by_the_named_deadline():
    """A reply that never comes is a TransportError that names the
    channel and ``REPLY_DEADLINE`` (the one default every blocking
    receive on a process channel shares), and the channel is dead."""
    assert ProcessTransport()._timeout == REPLY_DEADLINE == 60.0
    transport = ProcessTransport(timeout=0.05)
    parent, silent = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        transport.add_channel("w0", parent)
        with pytest.raises(
            TransportError,
            match=r"'w0' broke: no reply within REPLY_DEADLINE \(0\.05 s\)",
        ) as caught:
            transport.request("client", "w0", "ask", None)
        assert isinstance(caught.value.__cause__, socket.timeout)
        with pytest.raises(TransportError, match="no live channel"):
            transport.send("client", "w0", "enqueue", 1)
    finally:
        transport.close()
        silent.close()


def test_process_piggybacked_events_reach_client_handler(process_transport):
    transport, _registry, add = process_transport
    add("w0")
    events = []
    transport.register(
        "client", lambda src, kind, payload: events.append(
            (src, kind, payload))
    )
    transport.request("client", "w0", "traced", None)
    assert events == [
        ("w0", "trace-events", [(1, "shard.apply", "shard0", {"x": 1})])
    ]


def test_process_max_batch_forces_flush():
    transport = ProcessTransport(max_batch=3, timeout=30.0)
    parent, child = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    received = []
    thread = threading.Thread(
        target=echo_worker, args=(child, received), daemon=True
    )
    thread.start()
    try:
        transport.add_channel("w0", parent)
        for i in range(3):
            transport.send("gk0", "w0", "enqueue", i)
        transport.request("client", "w0", "stop", None)
        assert received[:3] == [("enqueue", i) for i in range(3)]
        assert transport.stats.batches_sent == 1
    finally:
        transport.close()
        child.close()
        thread.join(timeout=5)


def test_process_dead_channel_raises(process_transport):
    transport, _registry, _add = process_transport
    with pytest.raises(TransportError):
        transport.send("a", "ghost", "x", None)


def test_process_remove_channel_discards_buffered(process_transport):
    transport, registry, add = process_transport
    received = add("w0")
    transport.send("gk0", "w0", "enqueue", 1)
    transport.remove_channel("w0")
    assert registry.snapshot()["transport.queue_depth.w0"] == 0
    assert received == []
    with pytest.raises(TransportError):
        transport.request("client", "w0", "ask", 1)
