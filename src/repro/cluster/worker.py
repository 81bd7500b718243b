"""Worker processes for the real (multiprocess) deployment.

Two worker mains live here, each running one :class:`SocketHost` (the
selector loop, frame reading and replies) over length-prefixed
:mod:`~repro.cluster.wire` frames:

* :func:`shard_worker_main` — one OS process per shard: owns a real
  :class:`~repro.cluster.shard.ShardServer` (the same event loop the
  simulator drives) behind a :class:`ShardEndpoint` — the one shard
  side of the coordinator protocol, which the direct and simulated
  deployments register in-process too — that enqueues gatekeeper-forwarded
  transactions and advances to program timestamps.  Node programs are
  shard-resident: the socket-free :class:`ResidentEngine` (the
  protocol; four host methods are its only ways out), hosted by the
  worker's :class:`_ResidentEngine` and by the simulator.
* :func:`oracle_worker_main` — the timeline oracle as its own process
  behind a UNIX listening socket; every shard worker (and the client,
  for the referee and GC) reaches it through :class:`OracleProxy`, one
  :class:`~repro.cluster.transport.ProcessTransport` channel each.

Worker-side trace spans (``shard.enqueue``, ``shard.apply``,
``program.round``) are buffered by a :class:`BufferTracer` and leave on
the next reply frame as one ``(count, bytes)`` record, encoded once.  A
peer's record that a ``collect_result`` reply brought back is carried,
still encoded, inside this worker's next record.  The client decodes a
record (:func:`decode_spans`) at arrival only when its tracer has a
sink; otherwise the record waits in its ring until someone reads it.
Either way the spans keep their original trace ids, which is how
``repro trace`` chains and the strict-serializability referee see one
coherent story across process boundaries.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import selectors
import socket
import time
from collections import OrderedDict, deque
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.oracle import TimelineOracle
from ..core.vclock import Ordering, VectorTimestamp
from ..db.operations import load_partition, partition_image
from ..errors import ProgramError, WeaverError
from ..obs.metrics import MetricsRegistry
from ..programs.framework import (
    VISIT_BUDGET_EXHAUSTED,
    ProgramStats,
    run_round,
)
from ..programs.library import PROGRAM_REGISTRY
from ..programs.routing import ShardSnapshotResolver
from ..programs.state import ProgramContext
from . import messages, wire
from .messages import FrontierForward, ProgramStart
from .shard import ShardServer, absorb_shards
from .transport import REPLY_DEADLINE, ProcessTransport, TransportError


def _orphan_check() -> Callable[[], bool]:
    """True once the client that forked this process has died: a worker
    of a SIGKILLed client is re-parented, and nobody is left to shut it
    down.  (Its client socket need not read EOF: a later fork inherits
    the client's end.)  Never true outside a forked child."""
    parent = multiprocessing.parent_process()
    if parent is None:
        return lambda: False
    return lambda: os.getppid() != parent.pid


class BufferTracer:
    """Tracer shim for worker processes: buffers span tuples
    ``(trace_id, kind, node, attrs)`` and the still-encoded records that
    peers' replies carried, in arrival order, until a reply drains them
    as one ``(count, bytes)`` record."""

    def __init__(self) -> None:
        self.events: List[Any] = []
        self.count = 0

    def emit(self, trace_id, kind: str, node: str = "", **attrs) -> None:
        self.events.append((trace_id, kind, node, attrs))
        self.count += 1

    def carry(self, record: Tuple[int, bytes]) -> None:
        """Keep a peer's ``(count, bytes)`` record for the next drain."""
        count, data = record
        self.events.append(data)
        self.count += count

    def drain(self) -> Optional[Tuple[int, bytes]]:
        """The buffered spans as ``(count, wire.encode(events))``, a
        carried record nested as its bytes; ``None`` when there are none."""
        if not self.events:
            return None
        events, self.events = self.events, []
        count, self.count = self.count, 0
        return count, wire.encode(events)


def _unpack_spans(data: bytes, out: list) -> None:
    items = wire.decode(data)
    if type(items) is not list:
        raise wire.WireError("a span record is not a list")
    for item in items:
        if type(item) is bytes:
            _unpack_spans(item, out)
        elif type(item) is tuple and len(item) == 4 and type(item[3]) is dict:
            out.append(item)
        else:
            raise wire.WireError(
                f"a span record holds a {type(item).__name__}"
            )


def span_count(src: str, record) -> int:
    """The span count of a reply's ``(count, bytes)`` record, checked
    at arrival: :class:`TransportError` naming ``src`` when the record
    is not one."""
    if (
        type(record) is tuple and len(record) == 2
        and type(record[0]) is int and record[0] >= 0
        and type(record[1]) is bytes
    ):
        return record[0]
    raise TransportError(
        f"spans from {src!r} are not a (count, bytes) record", src
    )


def decode_spans(src: str, record: Tuple[int, bytes]) -> List[tuple]:
    """The ``(trace_id, kind, node, attrs)`` spans of one reply's
    ``(count, bytes)`` record, carried records expanded where they sit.
    :class:`~repro.cluster.wire.WireError` naming ``src`` when the bytes
    do not decode to spans or hold another number of them."""
    count, data = record
    spans: list = []
    try:
        _unpack_spans(data, spans)
        if len(spans) != count:
            raise wire.WireError(
                f"{len(spans)} spans where the record says {count}"
            )
    except wire.WireError as exc:
        raise wire.WireError(
            f"spans from {src!r} do not decode: {exc}"
        ) from exc
    return spans


class OracleProxy:
    """Client-side stub of the oracle process: the ordering surface
    shards use (:meth:`order`) and the referee/GC surface the client
    uses (:meth:`established_order`, :meth:`collect_below`, ``stats``),
    each one request on a :class:`ProcessTransport` channel named
    ``"oracle"``, which fails a call that breaks, stays silent for
    ``REPLY_DEADLINE`` or is refused with a :class:`TransportError` on
    that channel.
    """

    def __init__(self, path: str):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(path)
        # Its own transport: none of the caller's counters move with it.
        self._transport = ProcessTransport()
        self._transport.add_channel("oracle", sock)

    def _call(self, kind: str, payload: Any) -> Any:
        return self._transport.request("client", "oracle", kind, payload)

    # -- ordering surface (what RefinableOrdering calls) ----------------

    def order(self, a: VectorTimestamp, b: VectorTimestamp,
              prefer: Ordering = Ordering.BEFORE) -> Ordering:
        return self._call("order", (a, b, prefer))

    def established_order(self, a, b) -> Optional[Ordering]:
        return self._call("established", (a, b))

    def collect_below(self, watermark: VectorTimestamp) -> int:
        return self._call("collect", watermark)

    def shutdown(self) -> None:
        try:
            self._call("shutdown", None)
        except TransportError:
            pass

    def close(self) -> None:
        self._transport.close()


# -- the shard worker ----------------------------------------------------


class ShardEndpoint:
    """The shard side of the coordinator protocol: one
    :class:`ShardServer` behind the transport's handler signature.

    Every deployment registers it — the direct one over each live
    in-process shard on a ``LocalTransport``, the simulated one on a
    ``SimTransport`` (behind its crash check), the process one inside
    every shard worker (the engine below routes whatever is not
    worker-to-worker program traffic here) — so the one write path
    (:class:`~repro.db.database.WritePath`) talks to the same endpoint
    wherever the shard lives.
    """

    def __init__(self, shard: ShardServer):
        self.shard = shard
        self.stragglers_dropped = 0

    def deliver(self, src: Optional[str], kind: str, payload: Any) -> Any:
        """Handle one message; the return value is a request's reply
        (one-way kinds return None)."""
        shard = self.shard
        if kind == "enqueue":
            gk_index, qtx = payload
            if qtx.ts.epoch < shard.epoch:
                # Pre-recovery straggler: its committed effects are
                # already in the reloaded or reconciled state, and
                # applying it now would violate decided order.  The
                # blocking coordinators drain before the barrier, so
                # only the simulator (a partitioned channel holding a
                # message past a recovery) gets here.
                self.stragglers_dropped += 1
                return None
            shard.enqueue(gk_index, qtx)
            return None
        if kind == "advance_to":
            return shard.advance_to(payload)
        if kind == "drain":
            return shard.apply_available()
        if kind == "collect_below":
            return shard.collect_below(payload)
        if kind == "advance_epoch":
            shard.advance_epoch(payload)
            return True
        if kind in ("ping", "shutdown"):
            # shutdown is a request (not a one-way send) so the client
            # can await the acknowledgement before reaping the process.
            return True
        raise WeaverError(f"unknown shard message {kind!r}")


# -- shard-resident program execution (section 4) ------------------------


class ResidentStats:
    """Counters for the shard-resident execution path, exported under
    ``program.resident.*`` (summed across workers by the client)."""

    def __init__(self) -> None:
        self.programs_coordinated = 0  # ProgramStart handled here
        self.programs_participated = 0  # queries this worker took part in
        self.rounds_executed = 0       # local round slices run
        self.entries_processed = 0     # frontier entries run locally
        self.forwards_sent = 0         # FrontierForward frames sent
        self.forwards_received = 0     # FrontierForward frames received
        self.hops_forwarded = 0        # hops inside sent frames
        self.hops_received = 0         # hops inside received frames
        self.round_reports = 0         # round reports processed (coord)
        self.stale_drops = 0           # frames for finished queries
        self.peer_reconnects = 0       # worker channels rebuilt


class _ResidentQuery:
    """One in-flight program's state on one participating worker."""

    __slots__ = (
        "qid", "program", "ctx", "resolver", "trace_id", "coordinator",
        "buf", "received", "go", "entries", "tags", "values", "error",
    )

    def __init__(self, qid: int):
        self.qid = qid
        self.program = None
        self.ctx: Optional[ProgramContext] = None
        self.resolver = None
        self.trace_id: Optional[int] = None
        self.coordinator: Optional[int] = None
        # round -> (handle, params, key) rows, kept here or unpacked
        # from a peer's columns; a key is pack_level bytes, one level
        # per round, so one round's keys share a length.
        self.buf: Dict[int, list] = {}
        self.received: Dict[int, int] = {}   # round -> hops from peers
        self.go: Dict[int, dict] = {}        # round -> go not yet run
        # Per-entry log: (pack(round) + key, handle, visible, n_hops) —
        # the evidence halt filtering replays (see _fragment).
        self.entries: List[tuple] = []
        # Emitted results in two columns: values[i] was emitted under
        # tags[i] = pack(round) + key + pack(seq), whose byte order is
        # the global deterministic order the coordinator sorts into.
        self.tags: List[bytes] = []
        self.values: list = []
        # Why a forward failed; fails its round (see _maybe_execute).
        self.error: Optional[str] = None


class _Coordination:
    """Coordinator-side bookkeeping for one program: reports fold in as
    they arrive, so quiescence is ``awaiting`` running empty."""

    __slots__ = (
        "qid", "conn", "rid", "ps", "awaiting", "sent", "halt", "error",
        "processed_total", "involved", "rounds_issued", "last_activity",
        "done",
    )

    def __init__(self, conn, rid: int, ps: ProgramStart):
        self.qid = ps.query_id
        self.conn = conn
        self.rid = rid
        self.ps = ps
        self.awaiting: set = set()      # workers yet to report the round
        # Hops sent per destination, by peers: the next round's expects.
        self.sent: Dict[int, int] = {}
        self.halt: Optional[bytes] = None   # minimal halt key so far
        self.error: Optional[str] = None    # first error reported
        self.processed_total = 0
        self.involved: set = set()
        self.rounds_issued = 0
        self.last_activity = 0.0        # set as each round is issued
        self.done = False


# The order-key level of an entry's first (most often only) emission.
_FIRST_LEVEL = messages.pack_level(0, "results from one vertex")


class ResidentEngine:
    """Shard-resident node programs: the protocol, with no transport.

    The client submits one ``program_start`` to the start vertex's owner
    (the *coordinator*), each shard runs
    :func:`~repro.programs.framework.run_round` on its slice of every
    scatter-gather round against its local snapshot, next frontiers
    travel shard-to-shard as :class:`FrontierForward` frames (one per
    (src, dst, round) — O(shards) messages per round; rows here, columns
    on the wire), and the coordinator detects round quiescence, sorts
    the per-shard fragments' ``tags`` / ``values`` columns into one
    result, and replies with only that.

    A host feeds it envelopes (:meth:`_dispatch`, then :meth:`drain` for
    what the engine queued for itself) and supplies the four ways out:
    :meth:`_peer_send`, :meth:`_peer_request`, :meth:`_reply`,
    :meth:`_hold`.  The two hosts are the shard worker's socket loop
    (:class:`_ResidentEngine`) and :mod:`repro.sim.deployment`.  The
    coordinator is a participant like any other, minus the wire: its
    own ``round_go`` / ``round_report`` are queued handler calls, and
    its own fragment is read from its query.
    """

    FINISHED_MEMORY = 4096
    #: Seconds (host clock) a program message that outran what makes
    #: this shard ready is held before it fails by name.
    READY_DEADLINE = 5.0
    #: Seconds (host clock) a coordinated round may go without a report
    #: before the workers it awaits are pinged; a dead one fails it.
    STALL_DEADLINE = 5.0

    def __init__(self, worker: ShardEndpoint, index: int, owner_of):
        self.worker = worker
        self.tracer = worker.shard.tracer
        self.index = index
        #: ``owner_of(handle)`` is the owning shard's index, None for a
        #: vertex nobody placed (it resolves as missing, here).
        self.owner_of = owner_of
        self.prog_stats = ProgramStats()
        self.resident = ResidentStats()
        self.queries: Dict[int, _ResidentQuery] = {}
        self.coordinated: Dict[int, _Coordination] = {}
        self.finished: "OrderedDict[int, bool]" = OrderedDict()
        # (conn, envelope) frames read, (handler, payload) own calls.
        self.pending: deque = deque()
        self._handlers = {"forward": self._on_forward,
                          "round_go": self._on_round_go,
                          "round_report": self._on_round_report}
        self.running = True

    # -- the host's side ------------------------------------------------

    def _peer_send(self, dst: int, kind: str, payload) -> None:
        """One-way ``kind`` to shard ``dst``'s engine, FIFO per peer."""
        raise NotImplementedError

    def _peer_request(self, dst: int, kind: str, payload):
        """Shard ``dst``'s answer to ``kind``, synchronously."""
        raise NotImplementedError

    def _reply(self, conn, rid: int, result=None, error=None) -> None:
        """Answer request ``rid`` that arrived on ``conn``."""
        raise NotImplementedError

    def _hold(self, conn, envelope: dict, ts: VectorTimestamp) -> bool:
        """Take a message this shard is not ready for at ``ts`` and
        dispatch it again later; False once ``READY_DEADLINE`` has
        passed (``envelope["until"]``) or waiting cannot help."""
        raise NotImplementedError

    # -- dispatch -------------------------------------------------------

    def drain(self) -> None:
        """Run what is queued: frames read, and this engine's own calls."""
        while self.pending and self.running:
            head, item = self.pending.popleft()
            if callable(head):
                head(item)
            else:
                self._dispatch(head, item)

    def _dispatch(self, conn, envelope: dict) -> None:
        """A frame that arrived on ``conn``."""
        kind = envelope.get("k")
        if kind not in ("b", "r"):
            return
        # One-way messages first: a request frame carries the ones that
        # were buffered on its channel, FIFO ahead of the request.
        one_way = envelope.pop("m", None) or ()
        for position, (msg_kind, payload) in enumerate(one_way):
            waiting = self._not_ready(msg_kind, payload)
            if waiting is not None:
                envelope["m"] = one_way[position:]
                if self._hold(conn, envelope, waiting[0]):
                    return
                # round_go is the only one-way kind that waits.
                self._report_failure(payload, str(waiting[1]))
                continue
            self._handle_send(msg_kind, payload)
        if kind != "r":
            return
        rid = envelope["id"]
        req = envelope["kind"]
        payload = envelope.get("p")
        waiting = self._not_ready(req, payload)
        if waiting is not None:
            if not self._hold(conn, envelope, waiting[0]):
                self._reply(conn, rid, error=str(waiting[1]))
            return
        try:
            if req == "program_start":
                # Replies for itself, once the rounds are done.
                self._handle_program_start(conn, rid, payload)
                return
            result = self._handle_request(req, payload)
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            self._reply(conn, rid, error=repr(exc))
        else:
            self._reply(conn, rid, result=result)
        if req == "shutdown":
            self.running = False

    def _not_ready(
        self, kind: str, payload
    ) -> Optional[Tuple[VectorTimestamp, WeaverError]]:
        """(timestamp, named error) when a program message needs this
        shard ready for a timestamp it is not ready for yet:
        ``program_start`` and a peer's first ``round_go`` build the
        query's snapshot resolver (a ``forward`` only buffers hops until
        then)."""
        if kind == "round_go":
            qid = payload["q"]
            query = self.queries.get(qid)
            if qid in self.finished or (
                query is not None and query.program is not None
            ):
                return None
        elif kind != "program_start":
            return None
        ts = payload.ts if kind == "program_start" else payload["ts"]
        error = self.worker.shard.not_ready(ts)
        return None if error is None else (ts, error)

    def _handle_send(self, kind: str, payload) -> None:
        """A program kind's handler fails just its query if it raises;
        anything else raising ends the host, loudly."""
        handler = self._handlers.get(kind)
        if handler is None:
            self.worker.deliver(None, kind, payload)
        else:
            handler(payload)

    def _handle_request(self, kind: str, payload):
        if kind == "collect_result":
            return self._fragment(**payload)
        if kind == "advance_epoch":
            self._clear_resident_state()
        return self.worker.deliver(None, kind, payload)

    def _clear_resident_state(self) -> None:
        """Epoch barrier: drop in-flight programs."""
        self.queries.clear()
        self.coordinated.clear()
        self.finished.clear()

    def _deliver(self, dst: int, kind: str, payload) -> None:
        """To shard ``dst``'s engine.  To this one it is a call of the
        kind's handler, queued for the host's next drain instead of made
        inline, so deep traversals never recurse through rounds."""
        if dst == self.index:
            self.pending.append((self._handlers[kind], payload))
        else:
            self._peer_send(dst, kind, payload)

    # -- participant side -----------------------------------------------

    def _ensure_query(self, qid: int) -> Optional[_ResidentQuery]:
        if qid in self.finished:
            self.resident.stale_drops += 1
            return None
        query = self.queries.get(qid)
        if query is None:
            query = self.queries[qid] = _ResidentQuery(qid)
        return query

    def _mark_finished(self, qid: int) -> None:
        self.finished[qid] = True
        while len(self.finished) > self.FINISHED_MEMORY:
            self.finished.popitem(last=False)

    def _on_forward(self, forward: FrontierForward) -> None:
        query = self._ensure_query(forward.query_id)
        if query is None:
            return
        self.resident.forwards_received += 1
        try:
            rows = forward.rows()
            self.resident.hops_received += len(rows)
            query.buf.setdefault(forward.round, []).extend(rows)
            query.received[forward.round] = (
                query.received.get(forward.round, 0) + len(rows)
            )
            self._maybe_execute(query, forward.round)
        except Exception as exc:  # noqa: BLE001 - this query only
            # The round fails at its go: here already, or when it comes.
            query.error = str(exc) if isinstance(exc, ProgramError) else (
                f"forward failed: {exc!r}"
            )
            self._maybe_execute(query, forward.round)

    def _on_round_go(self, payload: dict) -> None:
        try:
            query = self._ensure_query(payload["q"])
            if query is None:
                return
            if query.program is None:
                error = self._build(
                    query, payload["program"], payload["init"],
                    payload["ts"], payload.get("trace_id"),
                    payload["coordinator"],
                )
                if error is not None:
                    self._report_failure(payload, error)
                    return
            query.go[payload["round"]] = payload
            self._maybe_execute(query, payload["round"])
        except Exception as exc:  # noqa: BLE001 - this query only
            self._report_failure(payload, f"round_go failed: {exc!r}")

    def _build(self, query: _ResidentQuery, name: str, init, ts,
               trace_id, coordinator: int) -> Optional[str]:
        """Ready ``query`` to run here, once: the program rebuilt from its
        wire form, a context, a resolver whose placement is all "here";
        else why not (a class registered after the fork is unknown)."""
        cls = PROGRAM_REGISTRY.get(name)
        if cls is None:
            return f"unknown program {name!r}"
        try:
            query.program = cls(**(init or {}))
        except Exception as exc:  # noqa: BLE001 - refused by name
            return f"program {name!r} refused its init: {exc!r}"
        query.ctx = ProgramContext(query.qid, ts)
        query.resolver = ShardSnapshotResolver(
            ts, None, [self.worker.shard], stats=self.prog_stats,
        )
        query.trace_id = trace_id
        query.coordinator = coordinator
        self.resident.programs_participated += 1
        return None

    def _report_failure(self, go: dict, message: str) -> None:
        """Answer a ``round_go`` this worker cannot execute; it never
        will."""
        if go["q"] in self.queries:
            self.queries[go["q"]].go.pop(go["round"], None)
        self._report(go["coordinator"], {
            "q": go["q"], "round": go["round"], "worker": self.index,
            "sent": {}, "halt": None, "processed": 0, "error": message,
        })

    def _report(self, coordinator: int, report: dict) -> None:
        """A round report; to an unreachable coordinator, none (the
        client surfaces the failure through its own channel)."""
        try:
            self._deliver(coordinator, "round_report", report)
        except (TransportError, OSError, socket.timeout):
            pass

    def _maybe_execute(self, query: _ResidentQuery, round_no: int) -> None:
        go = query.go.get(round_no)
        if go is None or query.program is None:
            return
        if query.error is not None:
            # A failed forward: its hops will never be counted, so the
            # round fails here instead of waiting for them.
            self._report_failure(go, query.error)
        elif query.received.get(round_no, 0) >= go["expect"]:
            del query.go[round_no]
            query.ctx.visits_left = go["budget"]
            self._execute_round(query, round_no)

    def _execute_round(self, query: _ResidentQuery, round_no: int) -> None:
        """This worker's slice of one round: the one round body plus the
        resident frontier exchange (order-keyed hops partitioned to the
        workers that own them)."""
        # Same-length order keys make the per-worker sort reproduce the
        # executor's append order within the round slice.
        frontier = sorted(query.buf.pop(round_no, []), key=itemgetter(2))
        ctx = query.ctx
        self.resident.rounds_executed += 1
        if query.trace_id is not None:
            self.tracer.emit(
                query.trace_id, "program.round",
                node=self.worker.shard.name, query_id=query.qid,
                round=round_no, frontier=len(frontier), shard=self.index,
            )
        next_by_dst: Dict[int, list] = {}
        entries, tags, values = query.entries, query.tags, query.values
        results = ctx.results
        already, tagged = len(entries), len(values)
        owner_of, here = self.owner_of, self.index
        pack_levels = messages.pack_levels

        def deliver(entry, node, hops) -> None:
            nonlocal tagged
            handle, _params, key = entry
            tag = round_tag + key
            # Every result before ``tagged`` is tagged, so the tail is
            # what this entry emitted: most often one value.
            emitted = len(results) - tagged
            if emitted == 1:
                tags.append(tag + _FIRST_LEVEL)
                values.append(results[tagged])
                tagged += 1
            elif emitted:
                tags.extend(
                    pack_levels(tag, emitted, "results from one vertex")
                )
                values.extend(results[tagged:])
                tagged += emitted
            entries.append((tag, handle, node is not None, len(hops)))
            if not hops:
                return
            next_keys = pack_levels(key, len(hops), "hops from one vertex")
            for next_key, (next_handle, next_params) in zip(next_keys, hops):
                dst = owner_of(next_handle)
                next_by_dst.setdefault(
                    here if dst is None else dst, []
                ).append((next_handle, next_params, next_key))

        halt_key = error = None
        try:
            round_tag = messages.pack_level(round_no, "rounds")
            halted_at = run_round(
                query.program, frontier, query.resolver.resolve_many,
                ctx, self.prog_stats, deliver,
            )
            if halted_at is not None:
                halt_key = halted_at[2]
        except Exception as exc:  # noqa: BLE001 - reported upstream
            # Never empty: a bare ``assert`` has no message of its own.
            error = str(exc) or repr(exc)
        processed = len(entries) - already
        self.resident.entries_processed += processed
        sent: Dict[int, int] = {}
        if next_by_dst and error is None and halt_key is None:
            try:
                sent = self._forward(query, round_no + 1, next_by_dst)
            except (
                TransportError, OSError, socket.timeout, wire.WireError
            ) as exc:
                # WireError: hop params the wire refuses to carry.
                error = f"frontier forward failed: {exc}"
        self._report(query.coordinator, {
            "q": query.qid, "round": round_no, "worker": self.index,
            "sent": sent, "halt": halt_key, "processed": processed,
            "error": error,
        })

    def _forward(
        self, query: _ResidentQuery, round_no: int, by_dst: Dict[int, list]
    ) -> Dict[int, int]:
        """Hand ``round_no``'s hops to the workers that own them — kept
        here, or one :class:`FrontierForward` per peer; returns the hop
        count per destination."""
        sent: Dict[int, int] = {}
        for dst, hops_list in by_dst.items():
            sent[dst] = len(hops_list)
            if dst == self.index:
                query.buf.setdefault(round_no, []).extend(hops_list)
            else:
                self._peer_send(dst, "forward", FrontierForward.from_rows(
                    query.qid, round_no, hops_list
                ))
                self.resident.forwards_sent += 1
                self.resident.hops_forwarded += sent[dst]
        return sent

    def _fragment(
        self, q: int, halt_round: Optional[int], halt_key: Optional[bytes],
    ) -> dict:
        """This worker's filtered share of finished program ``q`` (the
        parameters are a ``collect_result`` payload's keys): results in
        two columns (``values[i]`` emitted under ``tags[i]``) and the
        read set.  Per-vertex state stays here and goes with the query
        unless the program declares ``returns_state``: then the state of
        the vertices that count leaves as ``states``.

        Halt filtering is by (round, key): every entry of rounds before
        the halt round counts, plus halt-round entries at or before the
        globally-minimal halt key — order keys are only comparable
        within one round (they share a length there), so a bare key
        comparison across rounds would be wrong.  An entry's tag is
        ``pack(round) + key``, so both rules are the one byte comparison
        ``tag <= pack(halt_round) + halt_key``.
        """
        query = self.queries.pop(q, None)
        self._mark_finished(q)
        if query is None or query.ctx is None:
            return {
                "tags": [], "values": [], "read": [], "states": {},
                "visited": 0, "hops": 0,
            }
        entries, tags, values = query.entries, query.tags, query.values
        if halt_round is not None:
            halt = messages.pack_level(halt_round, "rounds") + halt_key
            entries = [entry for entry in entries if entry[0] <= halt]
            kept = [i for i, tag in enumerate(tags) if tag[:-4] <= halt]
            tags = [tags[i] for i in kept]
            values = [values[i] for i in kept]
        read: set = set()
        visited = hops_total = 0
        for _tag, handle, visible, n_hops in entries:
            read.add(handle)
            visited += visible
            hops_total += n_hops
        return {
            "tags": tags,
            "values": values,
            "read": sorted(read),
            "states": {
                h: s for h, s in query.ctx.states.items() if h in read
            } if query.program.returns_state else {},
            "visited": visited,
            "hops": hops_total,
        }

    # -- coordinator side -----------------------------------------------

    def _handle_program_start(
        self, conn, rid: int, ps: ProgramStart
    ) -> None:
        self.resident.programs_coordinated += 1
        if ps.frontier and self._read_locally(conn, rid, ps):
            return
        coord = _Coordination(conn, rid, ps)
        self.coordinated[ps.query_id] = coord
        if not ps.frontier:
            self._finish(coord, None, None)
            return
        query = self._ensure_query(ps.query_id)
        error = self._build(
            query, ps.program, ps.init, ps.ts, ps.trace_id, self.index
        )
        if error is not None:
            self._finish_error(coord, error)
            return
        by_dst: Dict[int, list] = {}
        for entry in ps.frontier:
            dst = self.owner_of(entry[0])
            by_dst.setdefault(
                self.index if dst is None else dst, []
            ).append(entry)
        sent = self._forward(query, 0, by_dst)
        coord.involved.update(sent)
        self._issue_round(coord, 0, {
            dst: (0 if dst == self.index else n) for dst, n in sent.items()
        })

    def _read_locally(self, conn, rid: int, ps: ProgramStart) -> bool:
        """Run a program that declares ``reads_only_start``, from start
        vertices all here, in one pass and reply; else False, having
        touched nothing.  Such a program ends at round 0, so it runs the
        way ``ProgramExecutor.execute`` runs a round, with no
        coordination, query record, round exchange or fragment; the
        counters move as the general round moves them, but for
        ``round_reports``.  A start vertex nobody placed counts as here,
        as it does on the general round."""
        cls = PROGRAM_REGISTRY.get(ps.program)
        if cls is None or not cls.reads_only_start:
            return False
        owner_of, here = self.owner_of, self.index
        for entry in ps.frontier:
            if owner_of(entry[0]) not in (None, here):
                return False
        try:
            program = cls(**(ps.init or {}))
        except Exception:  # noqa: BLE001 - the general round names it
            return False
        # The client keys the frontier in order, so it runs as it came.
        ctx = ProgramContext(ps.query_id, ps.ts)
        ctx.visits_left = ps.max_visits
        resolver = ShardSnapshotResolver(
            ps.ts, None, [self.worker.shard], stats=self.prog_stats,
        )
        resident = self.resident
        resident.programs_participated += 1
        resident.rounds_executed += 1
        if ps.trace_id is not None:
            self.tracer.emit(
                ps.trace_id, "program.round",
                node=self.worker.shard.name, query_id=ps.query_id,
                round=0, frontier=len(ps.frontier), shard=here,
            )
        delivered: list = []
        error = None
        try:
            run_round(
                program, ps.frontier, resolver.resolve_many, ctx,
                self.prog_stats,
                lambda entry, _node, _hops: delivered.append(entry),
            )
        except Exception as exc:  # noqa: BLE001 - this query only
            error = str(exc) or repr(exc)
        resident.entries_processed += len(delivered)
        if error is not None:
            self._reply(conn, rid, result={"error": error})
            return True
        read = ctx.read_set
        self.prog_stats.executions += 1
        self._reply(conn, rid, result={
            "query_id": ps.query_id, "ts": ps.ts, "results": ctx.results,
            "states": {
                h: s for h, s in ctx.states.items() if h in read
            } if program.returns_state else {},
            "vertices_visited": ctx.vertices_visited, "hops": ctx.hops,
            "halted": ctx.halted, "read_set": sorted(read),
            "rounds": ctx.rounds,
        })
        return True

    def _issue_round(self, coord: _Coordination, round_no: int,
                     expect: Dict[int, int]) -> None:
        """Tell every round participant how many peer hops to await;
        participants with only self-retained work get expect 0."""
        coord.awaiting = set(expect)
        coord.sent = {}
        coord.rounds_issued = round_no + 1
        coord.last_activity = time.monotonic()
        for dst in sorted(expect):
            self._deliver(dst, "round_go", {
                "q": coord.qid, "round": round_no, "expect": expect[dst],
                "program": coord.ps.program, "init": coord.ps.init,
                "ts": coord.ps.ts,
                "trace_id": coord.ps.trace_id, "coordinator": self.index,
                # Visits the program may still make: a participant's
                # round stops on it instead of running an exploding
                # frontier in full.
                "budget": coord.ps.max_visits - coord.processed_total,
            })

    def _on_round_report(self, report: dict) -> None:
        """Fold one report into its round as it arrives; the last one
        decides: an error, then a halt, then the visit budget, then
        whether any hop was sent."""
        coord = self.coordinated.get(report["q"])
        worker, round_no = report["worker"], report["round"]
        if coord is None or worker not in coord.awaiting or (
            round_no != coord.rounds_issued - 1
        ):
            return  # finished, or a report this round already counted
        try:
            self.resident.round_reports += 1
            coord.awaiting.discard(worker)
            if report["error"] is not None and coord.error is None:
                coord.error = report["error"]
            coord.processed_total += report["processed"]
            halt = report["halt"]
            if halt is not None and (coord.halt is None or halt < coord.halt):
                coord.halt = halt
            sent = coord.sent
            for dst, n in report["sent"].items():
                # Hops a worker kept are not awaited from a peer.
                sent[dst] = sent.get(dst, 0) + (0 if dst == worker else n)
            if coord.awaiting:
                coord.last_activity = time.monotonic()
                return
            coord.involved.update(sent)
            max_visits = coord.ps.max_visits
            if coord.error is not None:
                self._finish_error(coord, coord.error)
            elif coord.halt is not None:
                self._finish(coord, round_no, coord.halt)
            elif coord.processed_total > max_visits or (
                coord.processed_total >= max_visits and sent
            ):
                self._finish_error(coord, VISIT_BUDGET_EXHAUSTED)
            elif sent:
                self._issue_round(coord, round_no + 1, sent)
            else:
                self._finish(coord, None, None)
        except Exception as exc:  # noqa: BLE001 - this query only
            if not coord.done:
                self._finish_error(coord, f"round_report failed: {exc!r}")

    def _finish(self, coord: _Coordination, halt_round, halt_key,
                error: Optional[str] = None) -> None:
        """Gather the fragments and reply with the result, or with
        ``error`` (the gather is then clean-up only)."""
        coord.done = True
        self.coordinated.pop(coord.qid, None)
        # This worker's fragment is read from its own query; every other
        # involved worker's is gathered by request.
        own = self._fragment(coord.qid, halt_round, halt_key)
        try:
            gathered = [self._peer_request(dst, "collect_result", {
                "q": coord.qid, "halt_round": halt_round,
                "halt_key": halt_key,
            }) for dst in sorted(coord.involved - {self.index})]
        except (TransportError, OSError, socket.timeout) as exc:
            error = error or f"result gather failed: {exc}"
        if error is not None:
            self._reply(coord.conn, coord.rid, result={"error": error})
            return
        # One worker's tags are already in byte order, which is the
        # (round, key, seq) order — it runs rounds in turn, each sorted —
        # so a fragment alone is the result as it stands.
        tags, values, read = own["tags"], own["values"], own["read"]
        states = own["states"]
        visited, hops_total = own["visited"], own["hops"]
        if gathered:
            read = set(read)
            for fragment in gathered:
                tags.extend(fragment["tags"])
                values.extend(fragment["values"])
                read.update(fragment["read"])
                states.update(fragment["states"])
                visited += fragment["visited"]
                hops_total += fragment["hops"]
            # A stable sort on the tag alone never compares two values.
            ordered = sorted(zip(tags, values), key=itemgetter(0))
            values = [value for _tag, value in ordered]
            read = sorted(read)
        payload = {
            "query_id": coord.qid, "ts": coord.ps.ts, "results": values,
            "states": states, "vertices_visited": visited,
            "hops": hops_total, "halted": halt_key is not None,
            "read_set": read, "rounds": coord.rounds_issued,
        }
        self.prog_stats.executions += 1
        self._reply(coord.conn, coord.rid, result=payload)

    def _finish_error(self, coord: _Coordination, message: str) -> None:
        # Halting at pack(0) + b"", which sorts before every entry.
        self._finish(coord, 0, b"", message)


class SocketHost:
    """The socket side of both worker processes: a selector loop that
    accepts on ``listener``, reads frames into ``pending`` and writes
    replies.  Losing ``client`` (the shard worker's stream from the
    client) ends the process; any other connection that closes, breaks
    or sends a frame that does not decode is dropped alone.  A subclass
    supplies ``pending``, ``running``, a ``tracer`` whose spans ride
    every reply, ``drain()`` (dispatch what was read) and :meth:`_tick`.
    """

    def __init__(self, listener, client=None):
        self.listener = listener
        self.client = client
        self.buffers: Dict[Any, wire.FrameBuffer] = {}
        self.sel = selectors.DefaultSelector()

    def _tick(self) -> None:
        """Runs once a second, with traffic flowing or not."""

    def run(self) -> None:
        if self.client is not None:
            self.client.setblocking(True)
            self.sel.register(self.client, selectors.EVENT_READ)
            self.buffers[self.client] = wire.FrameBuffer()
        if self.listener is not None:
            self.listener.setblocking(True)
            self.sel.register(self.listener, selectors.EVENT_READ)
        # The tick (and the orphan check) runs once a second whether or
        # not traffic is flowing, so no connection's frames can starve it.
        orphaned = _orphan_check()
        next_scan = time.monotonic() + 1.0
        while self.running:
            self.drain()
            if not self.running:
                break
            events = self.sel.select(timeout=1.0)
            now = time.monotonic()
            if now >= next_scan:
                if orphaned():
                    break
                self._tick()
                next_scan = now + 1.0
            for key, _mask in events:
                conn = key.fileobj
                if conn is self.listener:
                    peer, _ = self.listener.accept()
                    peer.setblocking(True)
                    self.sel.register(peer, selectors.EVENT_READ)
                    self.buffers[peer] = wire.FrameBuffer()
                    continue
                self._pump(conn)

    def _pump(self, conn) -> None:
        try:
            chunk = conn.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            chunk = b""
        buffer = self.buffers.get(conn)
        if chunk and buffer is not None:
            try:
                for frame in buffer.feed(chunk):
                    envelope = wire.decode(frame)
                    if not isinstance(envelope, dict):
                        raise wire.WireError("frame is not an envelope")
                    self.pending.append((conn, envelope))
                return
            except wire.WireError:
                if conn is self.client:
                    # What makes this shard ready, and every reply, ride
                    # the client's stream: the worker ends, and the
                    # client's read fails naming this shard.
                    self.running = False
                    raise
                # Any other stream is unreadable from here on: drop that
                # connection only.  Hops a peer's carried starve their
                # round's go, which _check_stalled fails by name.
        if conn is self.client:
            self.running = False
            return
        try:
            self.sel.unregister(conn)
        except (KeyError, ValueError):
            pass
        self.buffers.pop(conn, None)
        try:
            conn.close()
        except OSError:
            pass

    def close(self) -> None:
        """Close the listener and every connection."""
        for conn in {self.listener, self.client, *self.buffers} - {None}:
            conn.close()

    def _reply(self, conn, rid: int, result=None, error=None) -> None:
        if error is not None:
            reply = {"k": "e", "id": rid, "e": error}
        else:
            reply = {"k": "p", "id": rid, "p": result}
        # Buffered spans ride every reply: the client records them, a
        # peer carries them in its own next reply (_on_peer_spans).
        reply["ev"] = self.tracer.drain()
        try:
            frame = wire.encode(reply)
        except wire.WireError as exc:
            # A result, fragment or declared state the wire refuses
            # fails its request by name; this process keeps serving.
            frame = wire.encode(
                {"k": "e", "id": rid, "e": str(exc), "ev": reply["ev"]}
            )
        try:
            wire.write_frame(conn, frame)
        except OSError:
            if conn is self.client:
                self.running = False


class _CoopSocket:
    """Peer-channel socket adapter that keeps pumping inbound traffic.

    Worker↔worker channels can form send cycles (A forwarding a big
    frontier to B while B forwards to A): a plain blocking ``sendall``
    on both sides deadlocks once the kernel buffers fill.  This wrapper
    keeps the underlying socket non-blocking and, whenever a send or a
    reply-read would block, drains *inbound* peer bytes into the
    engine's frame buffers (buffering only — no message is executed
    re-entrantly), so every participant keeps consuming and the cycle
    always makes progress.
    """

    def __init__(self, sock, engine: "_ResidentEngine"):
        self._sock = sock
        self._engine = engine
        self._timeout = REPLY_DEADLINE
        sock.setblocking(False)

    def settimeout(self, timeout) -> None:
        self._timeout = timeout or REPLY_DEADLINE

    def fileno(self) -> int:
        return self._sock.fileno()

    def sendall(self, data) -> None:
        view = memoryview(data)
        deadline = time.monotonic() + self._timeout
        while view:
            try:
                sent = self._sock.send(view)
                view = view[sent:]
            except (BlockingIOError, InterruptedError):
                self._engine._coop_wait(self._sock, True, deadline)

    def recv(self, n: int) -> bytes:
        deadline = time.monotonic() + self._timeout
        while True:
            try:
                return self._sock.recv(n)
            except (BlockingIOError, InterruptedError):
                self._engine._coop_wait(self._sock, False, deadline)

    def close(self) -> None:
        self._sock.close()


class _ResidentEngine(SocketHost, ResidentEngine):
    """The shard worker: :class:`ResidentEngine` on the
    :class:`SocketHost`.  Here live worker↔worker channels (reconnected
    once when a peer was replaced), the wall-clock hold and the stall
    scan, plus the two message kinds only this host receives: the
    client's placement gossip (the ``owner_of`` the protocol routes by)
    and its ``stats`` request.
    """

    def __init__(
        self,
        worker: ShardEndpoint,
        client_sock,
        index: int,
        peer_listener=None,
        peer_paths: Optional[Dict[int, str]] = None,
        placement: Optional[Dict[str, int]] = None,
    ):
        SocketHost.__init__(self, peer_listener, client_sock)
        self.placement: Dict[str, int] = dict(placement or {})
        ResidentEngine.__init__(self, worker, index, self.placement.get)
        self._handlers["placement"] = self.placement.update
        self.peer_paths = dict(peer_paths or {})
        self.transport = ProcessTransport()
        self.transport.register("client", self._on_peer_spans)
        # The ``stats`` reply: this worker's counters under the names
        # every deployment exports; the client sums workers by name.
        self.registry = registry = MetricsRegistry()
        absorb_shards(registry, lambda: [worker.shard])
        registry.absorb("program", lambda: self.prog_stats)
        registry.absorb("program.resident", lambda: self.resident)
        registry.absorb("transport.worker", lambda: self.transport.stats)
        registry.absorb("process", lambda: worker)  # stragglers_dropped

    def _coop_wait(self, sock, writable: bool, deadline: float) -> None:
        """Wait for ``sock`` while pumping inbound connections (buffer
        only — nothing dispatches until the main loop resumes)."""
        while True:
            timeout = min(1.0, deadline - time.monotonic())
            if timeout <= 0:
                raise socket.timeout("peer channel stalled")
            reads = list(self.buffers)
            if not writable:
                reads.append(sock)
            r, w, _ = select.select(
                reads, [sock] if writable else [], [], timeout
            )
            for conn in r:
                if conn is sock and not writable:
                    return
                self._pump(conn)
            if writable and w:
                return

    def _check_stalled(self) -> None:
        """Probe reporters a coordinated query is still waiting on; a
        dead peer turns a silent stall into a prompt client error.  And
        fail a round whose go has waited ``STALL_DEADLINE`` for hops:
        peers send a round's hops before they report the round before
        it, so they are not late but lost (a dropped peer frame)."""
        now = time.monotonic()
        for query in list(self.queries.values()):
            for go in list(query.go.values()):
                since = go.setdefault("starved_since", now)
                if now - since >= self.STALL_DEADLINE:
                    self._report_failure(
                        go, f"round {go['round']}: hops never arrived"
                    )
        for coord in list(self.coordinated.values()):
            if coord.done or now - coord.last_activity < self.STALL_DEADLINE:
                continue
            for dst in sorted(coord.awaiting - {self.index}):
                try:
                    self._peer_request(dst, "ping", None)
                except (TransportError, OSError, socket.timeout):
                    self._finish_error(
                        coord, f"worker shard{dst} died mid-program"
                    )
                    break
            coord.last_activity = now

    _tick = _check_stalled

    # -- the four ways out ----------------------------------------------

    def _hold(self, conn, envelope: dict, ts: VectorTimestamp) -> bool:
        """Requeue a peer's message that outran this worker's own client
        frames; False once it has waited out the deadline.

        The client flushes every channel before it writes
        ``program_start``, so the heartbeats and ``advance_to`` that
        make this shard ready are already in the client socket's
        buffer: pump it and put the message back behind them.  A message
        that arrived *on* the client connection is refused: what makes
        the shard ready precedes it there, so pumping cannot help.
        """
        if conn is self.client:
            return False
        now = time.monotonic()
        deadline = envelope.setdefault("until", now + self.READY_DEADLINE)
        if now >= deadline:
            return False
        if all(
            not callable(head) and "until" in item
            for head, item in self.pending
        ):
            # Nothing but held frames is queued, so nothing queued can
            # make the shard ready: wait for the client's bytes.
            if select.select([self.client], [], [], deadline - now)[0]:
                self._pump(self.client)
        self.pending.append((conn, envelope))
        return True

    def _peer_channel(self, dst: int) -> str:
        name = f"peer{dst}"
        channel = self.transport._channels.get(name)
        if channel is None or channel.dead:
            if channel is not None:
                self.transport.remove_channel(name)
                self.resident.peer_reconnects += 1
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(self.peer_paths[dst])
            self.transport.add_channel(name, _CoopSocket(sock, self))
        return name

    def _peer_send(self, dst: int, kind: str, payload) -> None:
        # Flush inside the retry loop: buffering cannot fail, so a stale
        # channel to a SIGKILLed-and-replaced peer only surfaces at the
        # write.  Flushing here turns that into a reconnect-and-resend
        # instead of a silently dropped frame (the coordinator would
        # wait forever on the lost round report).
        src = self.worker.shard.name
        for attempt in (0, 1):
            name = self._peer_channel(dst)
            try:
                self.transport.send(src, name, kind, payload)
                self.transport.flush(name)
                return
            except TransportError:
                self.transport.remove_channel(name)
                self.resident.peer_reconnects += 1
                if attempt:
                    raise

    def _peer_request(self, dst: int, kind: str, payload):
        src = self.worker.shard.name
        for attempt in (0, 1):
            name = self._peer_channel(dst)
            try:
                return self.transport.request(src, name, kind, payload)
            except TransportError:
                if not self.transport._channels[name].dead:
                    # The peer answered with an error: asking again
                    # would find its fragment already collected.
                    raise
                self.transport.remove_channel(name)
                self.resident.peer_reconnects += 1
                if attempt:
                    raise

    def _on_peer_spans(self, src: str, kind: str, record) -> None:
        """The span record a peer's reply carried: kept encoded, so it
        reaches the client inside this worker's next reply to it."""
        self.tracer.carry(record)

    # -- this host's own message kinds ----------------------------------

    def _handle_request(self, kind: str, payload):
        if kind == "stats":
            return self.registry.snapshot()
        return super()._handle_request(kind, payload)


def shard_worker_main(
    sock,
    index: int,
    num_gatekeepers: int,
    oracle_path: Optional[str] = None,
    epoch: int = 0,
    image: Optional[tuple] = None,
    recovery_ts: Optional[VectorTimestamp] = None,
    store_path: Optional[str] = None,
    peer_listener=None,
    peer_paths: Optional[Dict[int, str]] = None,
    placement: Optional[Dict[str, int]] = None,
) -> None:
    """Entry point of one shard worker process."""
    oracle = (
        OracleProxy(oracle_path) if oracle_path else TimelineOracle()
    )
    shard = ShardServer(index, num_gatekeepers, oracle)
    shard.tracer = BufferTracer()
    if epoch > 0:
        shard.advance_epoch(epoch)
    if store_path is not None and recovery_ts is not None:
        # Real crash recovery: reopen the WAL-backed database and carve
        # this shard's partition (and the full placement the resident
        # engine routes by) out of the file on disk — nothing
        # graph-shaped was pickled across the fork.
        from ..store.durable import DurableStore
        from ..store.mapping import placement_from_store

        with DurableStore(store_path, read_only=True) as store:
            recovered = placement_from_store(store)
            image = partition_image(store.snapshot(), recovered, index)
        if placement is None:
            placement = recovered
    if image is not None and recovery_ts is not None:
        load_partition(shard.graph, image, recovery_ts)
    engine = _ResidentEngine(
        ShardEndpoint(shard), sock, index,
        peer_listener=peer_listener, peer_paths=peer_paths,
        placement=placement,
    )
    try:
        engine.run()
    finally:
        engine.transport.close()
        engine.close()
        if isinstance(oracle, OracleProxy):
            oracle.close()


# -- the oracle worker ---------------------------------------------------


class _OracleHost(SocketHost):
    """The oracle process: the :class:`SocketHost` over a request table
    of one :class:`TimelineOracle`, single-threaded by design — it is
    the serialization point whose request count Fig 14 measures."""

    def __init__(self, listener):
        super().__init__(listener)
        self.pending: deque = deque()
        self.running = True
        self.tracer = BufferTracer()  # nothing emits: every record is None
        oracle = TimelineOracle()
        # The ``stats`` reply: the oracle's counters under the names every
        # deployment exports.
        registry = MetricsRegistry()
        registry.register_collector(oracle.metrics)
        self._table: Dict[str, Callable[[Any], Any]] = {
            "order": lambda p: oracle.order(*p),
            "established": lambda p: oracle.established_order(*p),
            "collect": oracle.collect_below,
            "stats": lambda _p: registry.snapshot(),
            "shutdown": lambda _p: True,
        }

    def drain(self) -> None:
        while self.pending and self.running:
            conn, envelope = self.pending.popleft()
            kind, rid = envelope.get("kind"), envelope.get("id")
            try:
                if kind not in self._table:
                    raise WeaverError(f"unknown oracle request {kind!r}")
                result = self._table[kind](envelope.get("p"))
            except Exception as exc:  # noqa: BLE001 - report, keep serving
                self._reply(conn, rid, error=repr(exc))
            else:
                self._reply(conn, rid, result=result)
            if kind == "shutdown":
                self.running = False


def oracle_worker_main(listen_sock) -> None:
    """Entry point of the timeline-oracle process."""
    host = _OracleHost(listen_sock)
    try:
        host.run()
    finally:
        host.close()
