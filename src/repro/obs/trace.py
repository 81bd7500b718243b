"""Structured tracing: follow one transaction across every server.

A *trace id* is assigned at the client when a transaction or node
program is submitted; every hop it takes — stamping, backing-store
commit, shard enqueue, ordering decision, apply, program scatter/gather
— emits a :class:`Span` carrying that id, the simulated-time timestamp,
and the server that emitted it.  Spans land in an in-memory ring buffer
and are fanned out to pluggable *sinks*; the strict-serializability
referee (``repro.verify.history.History.attach``) is a sink, which is
what makes the checker a consumer of the trace stream rather than a
parallel bespoke recorder.

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
========================  ====================================================

``oracle.decide`` spans carry no trace id (a decision orders *two*
transactions); they join a trace through their ``a``/``b`` event-id
attributes — :func:`assemble_chain` stitches them in.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


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


class Tracer:
    """Ring-buffered span stream with pluggable sinks.

    ``clock`` supplies timestamps (the simulated deployment passes
    ``simulator.now``; direct mode has no time axis and defaults to the
    emission sequence number, which is still a total order).  Sinks see
    every span at emission, before ring eviction, so a consumer such as
    the history referee never loses events to buffer pressure.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        capacity: int = 1 << 16,
        registry=None,
    ) -> None:
        if capacity < 1:
            raise ValueError("tracer needs a positive capacity")
        self._clock = clock
        self._buffer: deque = deque(maxlen=capacity)
        self._sinks: List[Callable[[Span], None]] = []
        self._ids = itertools.count(1)
        self._seq = itertools.count()
        self._spans_counter = (
            registry.counter("trace.spans") if registry is not None else None
        )
        self._traces_counter = (
            registry.counter("trace.traces") if registry is not None else None
        )

    @property
    def capacity(self) -> int:
        return self._buffer.maxlen

    def __len__(self) -> int:
        return len(self._buffer)

    # -- identity -------------------------------------------------------

    def next_trace_id(self) -> int:
        """A fresh trace id; called by the client at submission."""
        if self._traces_counter is not None:
            self._traces_counter.inc()
        return next(self._ids)

    # -- emission -------------------------------------------------------

    def emit(
        self,
        trace_id: Optional[int],
        kind: str,
        node: str = "",
        at: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        seq = next(self._seq)
        if at is None:
            at = self._clock() if self._clock is not None else float(seq)
        span = Span(
            trace_id=trace_id,
            kind=kind,
            at=at,
            node=node,
            seq=seq,
            attrs=tuple(sorted(attrs.items())),
        )
        self._buffer.append(span)
        if self._spans_counter is not None:
            self._spans_counter.inc()
        for sink in self._sinks:
            sink(span)
        return span

    # -- sinks ----------------------------------------------------------

    def add_sink(self, sink: Callable[[Span], None]) -> None:
        self._sinks.append(sink)

    def remove_sink(self, sink: Callable[[Span], None]) -> None:
        self._sinks.remove(sink)

    # -- queries --------------------------------------------------------

    def spans(
        self,
        trace_id: Optional[int] = None,
        kind: Optional[str] = None,
    ) -> List[Span]:
        """Buffered spans, optionally filtered, in emission order."""
        out = []
        for span in self._buffer:
            if trace_id is not None and span.trace_id != trace_id:
                continue
            if kind is not None and span.kind != kind:
                continue
            out.append(span)
        return out

    def trace_ids(self) -> List[int]:
        """Distinct trace ids still present in the ring, ascending."""
        return sorted(
            {s.trace_id for s in self._buffer if s.trace_id is not None}
        )

    def clear(self) -> None:
        self._buffer.clear()


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
