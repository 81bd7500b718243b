"""The pluggable message transport behind Weaver's server contract.

Three implementations of one interface:

* :class:`LocalTransport` — synchronous in-process delivery: the
  direct deployment's transport (:class:`~repro.db.database.Weaver`
  registers one shard endpoint per live ``ShardServer``) and the
  contract's reference implementation;
* :class:`SimTransport` — :class:`~repro.sim.deployment.
  SimulatedWeaver`'s adapter over the deterministic
  :class:`~repro.sim.network.Network` simulator, which only sends: sends
  become scheduled FIFO deliveries with latency and fault injection (the
  resident engine's frames exactly once, whatever the fault plan
  duplicates);
* :class:`ProcessTransport` — the real thing: length-prefixed
  :mod:`~repro.cluster.wire` frames over UNIX sockets to worker
  processes, with **in-flight batching** (one-way messages buffer per
  channel and ride *inside* the next request frame on that channel,
  delivered before the request, preserving FIFO) and **request
  pipelining** (fan-outs write every request before reading any reply,
  so worker processes crunch concurrently).  It also carries the shard
  workers' peer channels and every link to the oracle process
  (:class:`~repro.cluster.worker.OracleProxy`).

The contract is intentionally small — ``register`` a delivery callback
per node name, ``send`` one-way, ``request`` round-trip, ``request_all``
fan-out — because that is exactly what the deployments call: the write
path every deployment shares (:class:`~repro.db.database.WritePath`)
only sends — gatekeeper→shard enqueues, heartbeats, the simulator's
``program_start`` — and the blocking
:class:`~repro.db.database.Coordinator` adds ``advance_to`` and
placement gossip (sends) and drains, GC and epoch barriers (fan-out
requests).

Backpressure rules (process transport): one-way sends never block (they
buffer); a buffer leaves when its channel issues a request (in the same
frame), when it reaches ``MAX_BATCH`` messages, or on an explicit
``flush()``.  Requests block the caller until the matching reply,
bounding client-side outstanding work to one pipelined fan-out.
"""

from __future__ import annotations

import itertools
import socket
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import WeaverError
from . import wire

#: Delivery callback: handler(src, kind, payload) -> optional reply.
Handler = Callable[[str, str, Any], Any]

#: Seconds a blocking receive on a process channel — a client's or a
#: peer's wait for a reply, an oracle call — waits before the channel
#: fails by name.
REPLY_DEADLINE = 60.0

#: One-way messages a process channel buffers before it writes them out
#: as one frame without waiting for a request.
MAX_BATCH = 512


class TransportError(WeaverError):
    """A channel failed: broken pipe, dead worker, timeout, protocol."""

    def __init__(self, message: str, channel: Optional[str] = None):
        super().__init__(message)
        self.channel = channel


class TransportStats:
    """Counters for the wire layer, exported under ``transport.*``.

    ``requests_pipelined`` counts requests issued while at least one
    other request was already in flight — the overlap the fan-out path
    exists to create.  ``batched_messages`` counts one-way messages that
    rode a multi-message frame (a batch of several, or a request frame
    carrying them) instead of paying their own syscall.
    """

    def __init__(self) -> None:
        self.messages_sent = 0       # logical one-way messages
        self.messages_received = 0   # logical inbound messages/replies
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.requests = 0
        self.requests_pipelined = 0
        self.batches_sent = 0        # multi-message frames
        self.batched_messages = 0    # messages riding those frames
        self.serialize_seconds = 0.0
        self.deserialize_seconds = 0.0


class Transport:
    """The deployment-neutral message-passing contract."""

    def __init__(self) -> None:
        self._handlers: Dict[str, Handler] = {}
        self.stats = TransportStats()

    def register(self, name: str, handler: Handler) -> None:
        """Install the delivery callback for node ``name`` (on a process
        transport: for trace events riding reply frames)."""
        self._handlers[name] = handler

    def send(self, src: str, dst: str, kind: str, payload: Any) -> None:
        """One-way message; delivery order is FIFO per (src, dst)."""
        raise NotImplementedError

    def request(self, src: str, dst: str, kind: str, payload: Any) -> Any:
        """Round trip: the reply."""
        raise NotImplementedError

    def request_all(
        self, src: str, calls: List[Tuple[str, str, Any]]
    ) -> List[Any]:
        """Fan-out of ``(dst, kind, payload)`` requests; replies in
        ``calls`` order.  Sequential here; transports that can overlap
        the round trips override it."""
        return [
            self.request(src, dst, kind, payload)
            for dst, kind, payload in calls
        ]

    def flush(self, dst: Optional[str] = None) -> None:
        """Push out any buffered one-way messages (no-op unless the
        transport batches)."""

    def close(self) -> None:
        """Release channels; further traffic raises."""


class LocalTransport(Transport):
    """Synchronous in-process delivery — the direct deployment's
    transport and the contract's reference implementation."""

    def _deliver(self, src: str, dst: str, kind: str, payload: Any) -> Any:
        handler = self._handlers.get(dst)
        if handler is None:
            raise TransportError(f"no handler registered for {dst!r}", dst)
        self.stats.messages_received += 1
        return handler(src, kind, payload)

    def send(self, src: str, dst: str, kind: str, payload: Any) -> None:
        self.stats.messages_sent += 1
        self._deliver(src, dst, kind, payload)

    def request(self, src, dst, kind, payload):
        self.stats.messages_sent += 1
        self.stats.requests += 1
        return self._deliver(src, dst, kind, payload)


class SimTransport(Transport):
    """The deterministic twin: the message contract over the simulated
    :class:`~repro.sim.network.Network`.

    Payloads stay Python objects (no serialization — determinism and
    fault injection are the simulator's job); ``kind`` maps straight to
    the network's per-kind counters and fault matching, except that an
    ``"enqueue"`` counts as ``"tx"`` or ``"nop"`` by what it carries
    (Fig 14's accounting and ``FaultPlan(kinds=...)`` rules).
    """

    #: The resident engine's frames are written for a socket's byte
    #: stream, which delivers each exactly once; the simulated network
    #: delivers a duplicated message twice, so the second copy of one
    #: send of these kinds is dropped at delivery.  (``enqueue`` is left
    #: to the shard's own sequence-number check; announces and
    #: heartbeats are idempotent.)
    EXACTLY_ONCE = frozenset({
        "program_start", "forward", "round_go", "round_report",
        "prog-reply",
    })

    def __init__(self, network) -> None:
        super().__init__()
        self.network = network
        self._send_ids = itertools.count()
        # Copies of one send arrive back to back on their channel, so
        # the last delivered send per (src, dst) is all there is to
        # remember.
        self._last_delivered: Dict[Tuple[str, str], int] = {}

    def _dispatch(self, dst: str, src: str, kind: str, payload: Any,
                  send_id: Optional[int] = None) -> Any:
        handler = self._handlers.get(dst)
        if handler is None:
            return None  # dead letter: destination never registered
        if kind in self.EXACTLY_ONCE:
            if self._last_delivered.get((src, dst), -1) == send_id:
                return None
            self._last_delivered[(src, dst)] = send_id
        self.stats.messages_received += 1
        return handler(src, kind, payload)

    def send(self, src: str, dst: str, kind: str, payload: Any) -> None:
        self.stats.messages_sent += 1
        # The network counts and faults shard-bound traffic as the paper
        # names it: heartbeats ("nop") apart from transactions ("tx").
        named = kind
        if kind == "enqueue":
            named = "nop" if payload[1].is_nop else "tx"
        self.network.send(
            src, dst, self._dispatch, dst, src, kind, payload,
            next(self._send_ids), kind=named,
        )


class _Channel:
    """Client end of one worker connection."""

    __slots__ = ("name", "sock", "buffer", "pending", "replies",
                 "next_id", "dead")

    def __init__(self, name: str, sock) -> None:
        self.name = name
        self.sock = sock
        self.buffer: List[Tuple[str, Any]] = []   # unsent one-way msgs
        self.pending: deque = deque()              # request ids in flight
        self.replies: Dict[int, dict] = {}
        self.next_id = 0
        self.dead = False


class ProcessTransport(Transport):
    """Length-prefixed wire frames to worker processes over sockets."""

    def __init__(self, timeout: float = REPLY_DEADLINE):
        super().__init__()
        self._channels: Dict[str, _Channel] = {}
        # Every channel name ever added: a removed one reports depth 0.
        self._names: Set[str] = set()
        self._timeout = timeout
        self._closed = False
        self._in_flight = 0     # requests awaiting a reply, all channels

    # -- wiring ---------------------------------------------------------

    def add_channel(self, name: str, sock) -> None:
        """Adopt the client end of a worker's socket."""
        sock.settimeout(self._timeout)
        self._channels[name] = _Channel(name, sock)
        self._names.add(name)

    def remove_channel(self, name: str) -> None:
        """Drop a channel (dead worker); buffered messages are discarded
        — their effects are already durable in the backing store, and
        recovery reloads from there."""
        channel = self._channels.pop(name, None)
        if channel is not None:
            self._in_flight -= len(channel.pending)
            try:
                channel.sock.close()
            except OSError:
                pass

    def channels(self) -> List[str]:
        return sorted(self._channels)

    def queue_depths(self) -> Dict[str, int]:
        """The collector of ``transport.queue_depth.<channel>``: messages
        buffered plus requests in flight, per channel ever added."""
        out = {}
        for name in sorted(self._names):
            channel = self._channels.get(name)
            out[f"transport.queue_depth.{name}"] = (
                len(channel.buffer) + len(channel.pending)
                if channel is not None else 0
            )
        return out

    def _channel(self, dst: str) -> _Channel:
        channel = self._channels.get(dst)
        if channel is None or channel.dead:
            raise TransportError(f"no live channel to {dst!r}", dst)
        return channel

    # -- framing --------------------------------------------------------

    def _write(self, channel: _Channel, envelope: dict) -> None:
        start = time.perf_counter()
        payload = wire.encode(envelope)
        self.stats.serialize_seconds += time.perf_counter() - start
        try:
            sent = wire.write_frame(channel.sock, payload)
        except OSError as exc:
            channel.dead = True
            raise TransportError(
                f"channel to {channel.name!r} broke: {exc}", channel.name
            ) from exc
        self.stats.frames_sent += 1
        self.stats.bytes_sent += sent

    def _read(self, channel: _Channel) -> dict:
        try:
            payload = wire.read_frame(channel.sock)
            start = time.perf_counter()
            envelope = wire.decode(payload)
        except (OSError, wire.WireError) as exc:
            # A frame that does not decode leaves the stream's state
            # unknown: the channel is as dead as a closed one.
            channel.dead = True
            why = str(exc)
            if isinstance(exc, socket.timeout):
                why = f"no reply within REPLY_DEADLINE ({self._timeout:g} s)"
            raise TransportError(
                f"channel to {channel.name!r} broke: {why}", channel.name
            ) from exc
        self.stats.deserialize_seconds += time.perf_counter() - start
        self.stats.frames_received += 1
        self.stats.bytes_received += len(payload) + 4
        self.stats.messages_received += 1
        return envelope

    def _take_buffer(
        self, channel: _Channel, with_request: bool = False
    ) -> List[Tuple[str, Any]]:
        """Empty the channel's buffer for one outgoing frame, counting
        it as a batch when the frame holds more than one message."""
        batch = channel.buffer
        if batch:
            channel.buffer = []
            if with_request or len(batch) > 1:
                self.stats.batches_sent += 1
                self.stats.batched_messages += len(batch)
        return batch

    def _flush_channel(self, channel: _Channel) -> None:
        batch = self._take_buffer(channel)
        if batch:
            self._write(channel, {"k": "b", "m": batch})

    # -- one-way sends (buffered; FIFO per channel) ---------------------

    def send(self, src: str, dst: str, kind: str, payload: Any) -> None:
        channel = self._channel(dst)
        channel.buffer.append((kind, payload))
        self.stats.messages_sent += 1
        if len(channel.buffer) >= MAX_BATCH:
            self._flush_channel(channel)

    def flush(self, dst: Optional[str] = None) -> None:
        names = [dst] if dst is not None else list(self._channels)
        for name in names:
            channel = self._channels.get(name)
            if channel is not None and not channel.dead:
                self._flush_channel(channel)

    # -- requests (pipelined) -------------------------------------------

    def request_async(
        self, src: str, dst: str, kind: str, payload: Any
    ) -> Tuple[str, int]:
        """Issue a request without waiting; returns a token for
        :meth:`collect`.  Buffered one-way messages on the channel ride
        in the same frame (``"m"``) and are delivered first — FIFO with
        the request, one write and one decode instead of two."""
        channel = self._channel(dst)
        if self._in_flight > 0:
            self.stats.requests_pipelined += 1
        rid = channel.next_id
        channel.next_id += 1
        self.stats.requests += 1
        self.stats.messages_sent += 1
        envelope = {"k": "r", "id": rid, "kind": kind, "p": payload}
        batch = self._take_buffer(channel, with_request=True)
        if batch:
            envelope["m"] = batch
        try:
            self._write(channel, envelope)
        except wire.WireError:
            # A payload the wire refuses: nothing was written, so the
            # one-way messages (a shard's heartbeats) still wait.
            channel.buffer = batch + channel.buffer
            raise
        channel.pending.append(rid)
        self._in_flight += 1
        return (dst, rid)

    def collect(self, token: Tuple[str, int]) -> Any:
        """Block until the reply for ``token`` arrives; deliver any
        piggybacked worker events to the registered handler."""
        dst, rid = token
        channel = self._channel(dst)
        while rid not in channel.replies:
            envelope = self._read(channel)
            if envelope.get("k") not in ("p", "e"):
                raise TransportError(
                    f"unexpected frame kind {envelope.get('k')!r} "
                    f"from {dst!r}", dst
                )
            events = envelope.get("ev")
            if events:
                handler = self._handlers.get("client")
                if handler is not None:
                    try:
                        handler(dst, "trace-events", events)
                    except TransportError as exc:
                        # The frame is whole and the channel lives on;
                        # only the request it answered fails.
                        envelope = {
                            "k": "e", "id": envelope["id"], "e": str(exc)
                        }
            channel.replies[envelope["id"]] = envelope
            if envelope["id"] in channel.pending:
                channel.pending.remove(envelope["id"])
                self._in_flight -= 1
        envelope = channel.replies.pop(rid)
        if envelope["k"] == "e":
            raise TransportError(
                f"worker {dst!r} failed: {envelope.get('e')}", dst
            )
        return envelope.get("p")

    def request(self, src, dst, kind, payload):
        return self.collect(self.request_async(src, dst, kind, payload))

    def request_all(
        self, src: str, calls: List[Tuple[str, str, Any]]
    ) -> List[Any]:
        """Pipelined fan-out: write every request, then read every
        reply.  Workers execute their requests concurrently; wall-clock
        is the slowest worker, not the sum."""
        tokens = [
            self.request_async(src, dst, kind, payload)
            for dst, kind, payload in calls
        ]
        return [self.collect(token) for token in tokens]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for name in list(self._channels):
            self.remove_channel(name)
