"""The trace ring and its sinks see the same spans, whatever carried them.

A span is a raw record until someone reads it: ``Tracer.emit`` builds a
:class:`~repro.obs.trace.Span` only for a sink, and the worker spans a
``ProcessWeaver`` reply carries stay one encoded record in the client's
ring until ``spans()`` decodes them.  These tests hold that laziness to
the eager answer on all three deployments, hold the ring's capacity to
a count of spans, define what a span record that does not decode does,
and keep the span catalog in ``obs/trace.py`` complete.
"""

import re

import pytest

from repro.cluster import wire, worker
from repro.cluster.process import ProcessWeaver
from repro.cluster.transport import TransportError
from repro.cluster.wire import WireError
from repro.db import Weaver, WeaverConfig
from repro.db import operations as ops
from repro.errors import ProgramError
from repro.obs import trace
from repro.obs.trace import Tracer
from repro.programs.library import CollectReachable, GetNode
from repro.sim.clock import MSEC
from repro.sim.deployment import SimulatedWeaver
from repro.workloads.chaos import run_chaos

CONFIG = dict(num_shards=2, num_gatekeepers=2)
TREE = 12


def _key(span):
    return (span.kind, span.trace_id, span.node, span.attrs)


def _blocking_script(db):
    """Commits, a traversal whose rounds run at both shards (so the
    coordinating worker gathers its peer's spans), more commits, a
    read, and a GC pass."""
    tx = db.begin_transaction()
    handles = [tx.create_vertex(f"p{i}") for i in range(TREE)]
    for i in range(1, TREE):
        tx.create_edge(handles[(i - 1) // 3], handles[i])
    tx.commit()
    reached = db.run_program(CollectReachable(), handles[0]).results
    assert sorted(reached) == sorted(handles)
    for i in range(3):
        tx = db.begin_transaction()
        tx.set_property(handles[i], "n", i)
        tx.commit()
    assert db.run_program(GetNode(), handles[1]).results
    db.collect_garbage()


def _sim_script(db):
    def commit(operations):
        db.submit_transaction(operations)
        db.run(2 * MSEC)

    commit([ops.CreateVertex(f"p{i}") for i in range(TREE)] + [
        ops.CreateEdge(f"e{i}", f"p{(i - 1) // 3}", f"p{i}")
        for i in range(1, TREE)
    ])
    box = {}
    db.submit_program(
        CollectReachable(), "p0", callback=lambda r: box.update(r=r)
    )
    db.run(5 * MSEC)
    assert len(box["r"].results) == TREE
    for i in range(3):
        commit([ops.SetVertexProperty(f"p{i}", "n", i)])
    db.run(20 * MSEC)                     # a GC tick or two


def _weaver():
    return Weaver(WeaverConfig(**CONFIG))


def _process():
    return ProcessWeaver(WeaverConfig(**CONFIG))


def _sim():
    return SimulatedWeaver(WeaverConfig(**CONFIG), gc_period=8 * MSEC)


DEPLOYMENTS = {
    "weaver": (_weaver, _blocking_script),
    "process": (_process, _blocking_script),
    "sim": (_sim, _sim_script),
}


def _run(name, sink=None):
    """One scripted run: the tracer's spans and its ``trace.spans``."""
    build, script = DEPLOYMENTS[name]
    db = build()
    try:
        if sink is not None:
            db.tracer.add_sink(sink)
        script(db)
        return db.tracer.spans(), db.tracer.counts()["trace.spans"]
    finally:
        if name == "process":
            db.close()


@pytest.fixture
def counted_spans(monkeypatch):
    """Every ``Span`` the tracer builds, counted."""
    built = []

    class CountedSpan(trace.Span):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(trace, "Span", CountedSpan)
    return built


@pytest.mark.parametrize("name", sorted(DEPLOYMENTS))
def test_ring_equals_sink(name, counted_spans):
    """A sink attached from the start and the ring read afterwards give
    the same spans in the same order, and ``trace.spans`` agrees — and
    while no sink is attached, no ``Span`` is built before the read."""
    seen = []
    ring, count = _run(name, sink=seen.append)
    assert [_key(s) for s in ring] == [_key(s) for s in seen]
    assert count == len(seen) == len(ring)
    kinds = {s.kind for s in seen}
    assert {"shard.apply", "gc.watermark"} <= kinds
    if name != "weaver":                  # the resident engine's rounds
        rounds = {s.node for s in seen if s.kind == "program.round"}
        assert rounds == {"shard0", "shard1"}

    del counted_spans[:]
    build, script = DEPLOYMENTS[name]
    db = build()
    try:
        script(db)
        assert counted_spans == []
        lazy = db.tracer.spans()
        lazy_count = db.tracer.counts()["trace.spans"]
    finally:
        if name == "process":
            db.close()
    assert len(counted_spans) == len(lazy)
    assert [_key(s) for s in lazy] == [_key(s) for s in seen]
    assert [s.seq for s in lazy] == sorted(s.seq for s in lazy)
    assert lazy_count == count


def _spans_of(kinds):
    return [(1, kind, "shard0", {"i": i}) for i, kind in enumerate(kinds)]


class TestEncodedRecords:
    def test_decoded_at_the_first_read_in_seq_order(self):
        tracer = Tracer()
        decoded = []

        def decode():
            decoded.append(1)
            return _spans_of(["b", "c"])

        tracer.emit(1, "a")
        tracer.emit_encoded(2, decode)
        tracer.emit(1, "d")
        assert len(tracer) == 4 and decoded == []
        spans = tracer.spans()
        assert [s.kind for s in spans] == ["a", "b", "c", "d"]
        assert [s.seq for s in spans] == [0, 1, 2, 3]
        assert [s.at for s in spans] == [0.0, 1.0, 2.0, 3.0]
        tracer.spans()
        assert decoded == [1]              # decoded in place, once

    def test_encoded_spans_take_the_arrival_time(self):
        now = [2.5]
        tracer = Tracer(clock=lambda: now[0])
        tracer.emit_encoded(2, lambda: _spans_of(["a", "b"]))
        now[0] = 9.0
        assert [s.at for s in tracer.spans()] == [2.5, 2.5]

    def test_eviction_counts_spans_not_records(self):
        tracer = Tracer(capacity=5)
        decoded = []

        def decode():
            decoded.append(1)
            return _spans_of(["e0", "e1", "e2", "e3"])

        tracer.emit(1, "a")
        tracer.emit(1, "b")
        tracer.emit_encoded(4, decode)         # 6 spans: "a" goes
        assert len(tracer) == 5
        tracer.emit(1, "c")                    # "b" and the head of
        tracer.emit(1, "d")                    # the record go, unread
        assert len(tracer) == 5 and decoded == []
        assert [s.kind for s in tracer.spans()] == [
            "e1", "e2", "e3", "c", "d",
        ]
        assert len(tracer) == 5

    def test_a_whole_record_is_evicted_undecoded(self):
        tracer = Tracer(capacity=3)
        tracer.emit_encoded(2, lambda: pytest.fail("decoded"))
        tracer.emit(1, "a")
        tracer.emit(1, "b")
        tracer.emit(1, "c")
        assert [s.kind for s in tracer.spans()] == ["a", "b", "c"]

    def test_trace_spans_counts_at_arrival(self):
        tracer = Tracer()
        tracer.emit_encoded(3, lambda: _spans_of(["a", "b", "c"]))
        assert tracer.counts()["trace.spans"] == 3


class TestSpanRecordFormat:
    def test_a_drained_buffer_round_trips_with_carried_records(self):
        peer = worker.BufferTracer()
        peer.emit(7, "program.round", node="shard1", round=0)
        here = worker.BufferTracer()
        here.emit(7, "shard.apply", node="shard0", shard=0)
        here.carry(peer.drain())
        here.emit(7, "program.round", node="shard0", round=0)
        record = here.drain()
        assert record[0] == 3 and here.drain() is None
        assert worker.decode_spans("shard0", record) == [
            (7, "shard.apply", "shard0", {"shard": 0}),
            (7, "program.round", "shard1", {"round": 0}),
            (7, "program.round", "shard0", {"round": 0}),
        ]

    @pytest.mark.parametrize("record", [
        (1, b"\x07\xff"),                           # garbage
        (1, b"\x06l\x00"),                          # WIRE_VERSION 6
        (2, wire.encode([(1, "k", "shard1", {})])),  # a count it denies
        (1, wire.encode([(1, "k", "shard1")])),      # not a span
        (1, wire.encode({"k": 1})),                  # not a list
    ], ids=["garbage", "version", "count", "shape", "dict"])
    def test_bytes_that_do_not_decode_name_the_shard(self, record):
        with pytest.raises(WireError, match="spans from 'shard1' do not"):
            worker.decode_spans("shard1", record)

    @pytest.mark.parametrize("record", [
        [(1, "k", "n", {})], (1,), ("1", b""), (-1, b""), (1, [b""]),
    ])
    def test_a_record_that_is_not_one_fails_at_arrival(self, record):
        with pytest.raises(TransportError, match="from 'shard1' are not"):
            worker.span_count("shard1", record)


def _corrupt_first_drain(monkeypatch):
    """Forked workers inherit a ``drain`` whose first record holding
    shard0's own spans carries bytes that do not decode; every other
    record is whole."""
    drain = worker.BufferTracer.drain
    spoiled = []

    def spoil(self):
        mine = any(
            type(event) is tuple and event[2] == "shard0"
            for event in self.events
        )
        record = drain(self)
        if record is None or spoiled or not mine:
            return record
        spoiled.append(1)
        return record[0], b"\x07\xff"

    monkeypatch.setattr(worker.BufferTracer, "drain", spoil)


def _one_read(db, handle="v"):
    tx = db.begin_transaction()
    tx.create_vertex(handle)
    tx.commit()
    return db.run_program(GetNode(), handle)


def test_undecodable_spans_fail_the_read_with_a_sink(monkeypatch):
    """With a sink the record is decoded at arrival: the request it rode
    on fails by the shard's name, and the worker serves on."""
    _corrupt_first_drain(monkeypatch)
    with ProcessWeaver(WeaverConfig(**CONFIG)) as db:
        seen = []
        db.tracer.add_sink(seen.append)
        with pytest.raises(ProgramError) as caught:
            _one_read(db)
        assert isinstance(caught.value.__cause__, TransportError)
        assert re.search(
            r"spans from 'shard\d' do not decode", str(caught.value)
        )
        before = len(seen)
        assert _one_read(db, "w").results
        assert len(seen) > before


def test_undecodable_spans_fail_spans_without_a_sink(monkeypatch):
    """Without a sink the read is answered and the record is kept: the
    reader of the ring gets the error, naming the shard."""
    _corrupt_first_drain(monkeypatch)
    with ProcessWeaver(WeaverConfig(**CONFIG)) as db:
        assert _one_read(db).results
        count = db.tracer.counts()["trace.spans"]
        assert len(db.tracer) == count > 0
        with pytest.raises(WireError, match=r"spans from 'shard\d' do not"):
            db.tracer.spans()
        with pytest.raises(WireError):
            db.tracer.trace_ids()


# -- the catalog -----------------------------------------------------------


def _catalog():
    return set(re.findall(r"^``([a-z_]+\.[a-z_]+)``\s", trace.__doc__, re.M))


def test_every_emitted_kind_is_in_the_catalog(monkeypatch):
    """Every kind a chaos run, and a process traversal plus GC, emits is
    a row of the "stable catalog" table in ``obs/trace.py``."""
    kinds = set()
    emit = Tracer.emit

    def observe(self, trace_id, kind, *args, **kwargs):
        kinds.add(kind)
        return emit(self, trace_id, kind, *args, **kwargs)

    monkeypatch.setattr(Tracer, "emit", observe)
    report = run_chaos(1, duration=20 * MSEC)
    assert report.consistent
    with ProcessWeaver(WeaverConfig(**CONFIG)) as db:
        _blocking_script(db)
        kinds |= {span.kind for span in db.tracer.spans()}
    assert "gc.watermark" in kinds and "program.round" in kinds
    assert kinds <= _catalog(), kinds - _catalog()
