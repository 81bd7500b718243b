"""Structured tracing: follow one transaction across every server.

A *trace id* is assigned at the client when a transaction or node
program is submitted; every hop it takes — stamping, backing-store
commit, shard enqueue, ordering decision, apply, program scatter/gather
— emits a span carrying that id, the simulated-time timestamp, and the
server that emitted it.  Spans land in an in-memory ring as raw records
and are fanned out to pluggable *sinks*; the strict-serializability
referee (``repro.verify.history.History.attach``) is a sink, which is
what makes the checker a consumer of the trace stream rather than a
parallel bespoke recorder.

A :class:`Span` object is built only for a sink, at emission, or for a
reader of the ring (:meth:`Tracer.spans`, :meth:`Tracer.trace_ids`,
:func:`assemble_chain`), when it reads.  Spans that arrive encoded from
another process (:meth:`Tracer.emit_encoded`) wait in the ring as one
encoded record, their seqs taken at arrival, and are decoded in place
by the first read.

Span kinds (the stable catalog; paper cross-references in
ARCHITECTURE.md):

========================  ====================================================
kind                      emitted when
========================  ====================================================
``client.submit``         a transaction leaves the client
``client.retry``          the client retries after an optimistic abort
``gatekeeper.stamp``      a gatekeeper issues the vector timestamp
``store.commit``          the backing store made the transaction durable
``gatekeeper.abort``      commit failed (OCC conflict/timestamp inversion)
``shard.enqueue``         a shard accepted the stamped forward
``shard.apply``           a shard applied it to the multi-version graph
``oracle.decide``         the timeline oracle committed a new order
``program.submit``        a node program leaves the client
``program.stamp``         the program has its timestamp; ``node`` is the
                          gatekeeper that issued it, ``reused=True`` when
                          it is the last ready stamp and nothing was issued
``program.round``         a shard worker executed one resident round
``program.complete``      the program's gather finished
``txn.commit``            workload-level commit record (tag + writes)
``program.read``          workload-level read record (observed tags)
``gc.watermark``          a GC pass is about to collect below ``ts``
                          (``trace_id=None``; settles the online referee)
========================  ====================================================

``oracle.decide`` spans carry no trace id (a decision orders *two*
transactions); they join a trace through their ``a``/``b`` event-id
attributes — :func:`assemble_chain` stitches them in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    """One event on one server, attributed to one trace."""

    trace_id: Optional[int]
    kind: str
    at: float
    node: str
    seq: int  # global emission order; stable sort key alongside `at`
    attrs: Tuple[Tuple[str, Any], ...] = ()

    def attr(self, key: str, default: Any = None) -> Any:
        for k, v in self.attrs:
            if k == key:
                return v
        return default

    def attrs_dict(self) -> Dict[str, Any]:
        return dict(self.attrs)


def _span(record: tuple) -> Span:
    """The :class:`Span` of one raw ring record
    ``(trace_id, kind, at, node, seq, attrs)``."""
    trace_id, kind, at, node, seq, attrs = record
    return Span(trace_id, kind, at, node, seq, tuple(sorted(attrs.items())))


class _Encoded:
    """``count`` spans that arrived encoded, seqs ``seq`` onward, the
    first ``skip`` of them already evicted.  ``decode()`` returns their
    ``(trace_id, kind, node, attrs)`` tuples; it runs only when the ring
    is read."""

    __slots__ = ("seq", "count", "at", "decode", "skip")

    def __init__(self, seq: int, count: int, at: Optional[float],
                 decode: Callable[[], Sequence[tuple]]) -> None:
        self.seq = seq
        self.count = count
        self.at = at
        self.decode = decode
        self.skip = 0

    def records(self) -> List[tuple]:
        seq, at = self.seq, self.at
        return [
            (trace_id, kind, float(seq + i) if at is None else at, node,
             seq + i, attrs)
            for i, (trace_id, kind, node, attrs) in enumerate(self.decode())
        ][self.skip:]


class Tracer:
    """Ring-buffered span stream with pluggable sinks.

    ``clock`` supplies timestamps (the simulated deployment passes
    ``simulator.now``; direct mode has no time axis and defaults to the
    emission sequence number, which is still a total order).  Sinks see
    every span at emission, before ring eviction, so a consumer such as
    the history referee never loses events to buffer pressure.  The
    ring holds ``capacity`` spans, however many records carry them.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        capacity: int = 1 << 16,
    ) -> None:
        if capacity < 1:
            raise ValueError("tracer needs a positive capacity")
        self._clock = clock
        self._capacity = capacity
        # Raw records (tuples) and _Encoded records, in seq order.
        self._ring: deque = deque()
        self._size = 0
        self._sinks: List[Callable[[Span], None]] = []
        # Trace ids issued, and spans emitted (the next span's seq).
        self._traces = 0
        self._seq = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return self._size

    # -- identity -------------------------------------------------------

    def next_trace_id(self) -> int:
        """A fresh trace id; called by the client at submission."""
        self._traces += 1
        return self._traces

    def counts(self) -> Dict[str, int]:
        """The collector of ``trace.spans`` and ``trace.traces``: spans
        emitted and trace ids issued, evicted ones included."""
        return {"trace.spans": self._seq, "trace.traces": self._traces}

    # -- emission -------------------------------------------------------

    def emit(
        self,
        trace_id: Optional[int],
        kind: str,
        node: str = "",
        at: Optional[float] = None,
        **attrs: Any,
    ) -> None:
        seq = self._seq
        self._seq = seq + 1
        if at is None:
            at = self._clock() if self._clock is not None else float(seq)
        record = (trace_id, kind, at, node, seq, attrs)
        ring = self._ring
        ring.append(record)
        # The steady state of a full ring, a raw record at its head, is
        # one popleft here; an encoded head goes through _evict.
        if self._size < self._capacity:
            self._size += 1
        elif type(ring[0]) is tuple:
            ring.popleft()
        else:
            self._size += 1
            self._evict()
        if self._sinks:
            span = _span(record)
            for sink in self._sinks:
                sink(span)

    def emit_encoded(
        self, count: int, decode: Callable[[], Sequence[tuple]]
    ) -> None:
        """Record ``count`` spans that arrived encoded, unread: they take
        their seqs and ``at`` now, and ``decode()`` (returning exactly
        ``count`` ``(trace_id, kind, node, attrs)`` tuples) runs at the
        first read of the ring.  Only for a tracer with no sink: a sink
        sees spans at emission, so a caller with sinks decodes and emits.
        """
        seq = self._seq
        self._seq = seq + count
        at = self._clock() if self._clock is not None else None
        self._ring.append(_Encoded(seq, count, at, decode))
        self._size += count
        if self._size > self._capacity:
            self._evict()

    def _evict(self) -> None:
        """Drop the oldest spans down to ``capacity``; an encoded record
        loses its head by count, without being decoded."""
        ring = self._ring
        excess = self._size - self._capacity
        while excess:
            head = ring[0]
            if type(head) is tuple:
                ring.popleft()
                excess -= 1
                continue
            left = head.count - head.skip
            if left <= excess:
                ring.popleft()
                excess -= left
            else:
                head.skip += excess
                excess = 0
        self._size = self._capacity

    # -- sinks ----------------------------------------------------------

    @property
    def has_sinks(self) -> bool:
        return bool(self._sinks)

    def add_sink(self, sink: Callable[[Span], None]) -> None:
        self._sinks.append(sink)

    def remove_sink(self, sink: Callable[[Span], None]) -> None:
        self._sinks.remove(sink)

    # -- queries --------------------------------------------------------

    def _records(self) -> deque:
        """The ring as raw records, encoded ones decoded in place.  A
        decode that raises leaves the ring as it was."""
        ring = self._ring
        if all(type(record) is tuple for record in ring):
            return ring
        decoded: deque = deque()
        for record in ring:
            if type(record) is tuple:
                decoded.append(record)
            else:
                decoded.extend(record.records())
        self._ring = decoded
        return decoded

    def spans(
        self,
        trace_id: Optional[int] = None,
        kind: Optional[str] = None,
    ) -> List[Span]:
        """Buffered spans, optionally filtered, in emission order."""
        return [
            _span(record)
            for record in self._records()
            if (trace_id is None or record[0] == trace_id)
            and (kind is None or record[1] == kind)
        ]

    def trace_ids(self) -> List[int]:
        """Distinct trace ids still present in the ring, ascending."""
        return sorted(
            {r[0] for r in self._records() if r[0] is not None}
        )

    def clear(self) -> None:
        self._ring.clear()
        self._size = 0


def _event_id(value: Any) -> Any:
    """Normalize a ts attribute to its event-id tuple."""
    return getattr(value, "id", value)


def assemble_chain(tracer: Tracer, trace_id: int) -> List[Span]:
    """The full span chain of one trace, ordering decisions included.

    Returns the trace's own spans plus every ``oracle.decide`` span
    whose ``a``/``b`` event id matches a timestamp that appears in the
    trace (decisions are unattributed at emission — one decision orders
    two transactions).  Sorted by (time, emission order).
    """
    own = tracer.spans(trace_id=trace_id)
    stamp_ids = {
        _event_id(span.attr("ts"))
        for span in own
        if span.attr("ts") is not None
    }
    chain = list(own)
    if stamp_ids:
        for span in tracer.spans(kind="oracle.decide"):
            if (
                span.attr("a") in stamp_ids
                or span.attr("b") in stamp_ids
            ):
                chain.append(span)
    chain.sort(key=lambda s: (s.at, s.seq))
    return chain
