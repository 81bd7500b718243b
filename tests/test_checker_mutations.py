"""Fault injection for the checkers themselves.

A verifier that never fires is indistinguishable from one that works.
Each test here hand-builds a minimal history containing exactly one
class of serializability violation — a duplicated timestamp, an apply
against the decided order, a stale or future or phantom read, a
real-time inversion — and asserts that the one referee
(``OnlineChecker``) AND the brute-force reference under ``tests/``
convict it, with the same violation kinds: under in-order and shuffled
span delivery, with no watermark (the offline verdict), with a watermark
after the offending span, and with one before it (so the conviction
must survive settlement and pruning of everything earlier).
"""

import random

import pytest

from repro.core.oracle import TimelineOracle
from repro.core.vclock import VectorClock
from repro.obs.trace import Span
from repro.verify.history import History, HistoryChecker, decided_order
from repro.verify.online import OnlineChecker

from .reference_checker import reference_check


def make_span(kind, at=0.0, **attrs):
    return Span(
        trace_id=None, kind=kind, at=at, node="synth", seq=0,
        attrs=tuple(attrs.items()),
    )


def store(ts, seq, at=0.0):
    return make_span(
        "store.commit", at=at, ts=ts, gk=ts.issuer, commit_seq=seq
    )


def txn(tag, ts, writes, submitted, acked):
    return make_span(
        "txn.commit", at=acked, tag=tag, ts=ts, writes=tuple(writes),
        submitted_at=submitted,
    )


def apply_span(shard, ts, seq, epoch=0, at=50.0):
    return make_span(
        "shard.apply", at=at, ts=ts, shard=shard, apply_seq=seq,
        epoch=epoch,
    )


def read_span(query_id, ts, reads, submitted, done):
    return make_span(
        "program.read", at=done, query_id=query_id, ts=ts,
        reads=tuple(reads), submitted_at=submitted,
    )


def watermark_span(ts):
    return make_span("gc.watermark", ts=ts)


def kinds(violations):
    return {v.kind for v in violations}


def referee_kinds(stream, compare):
    """The one referee over a span stream (watermarks included)."""
    referee = OnlineChecker(compare)
    for span in stream:
        referee.consume(span)
    return kinds(referee.finalize())


def reference_kinds(stream, compare):
    """The brute-force reference over the same records.  A plain History
    never forwards a watermark, so it is also the adapter here; its own
    end-of-run verdict (the referee, replayed) must agree."""
    history = History()
    for span in stream:
        history.consume(span)
    found = kinds(reference_check(history, compare))
    assert kinds(HistoryChecker(history, compare).check()) == found
    return found


def streams(m, spans):
    """Every delivery the conviction must survive.

    The offending span is the last of ``spans``.  ``m.before`` covers
    what precedes it and is delivered just ahead of it, in order only: a
    watermark promises that the store versions of everything below it
    have arrived, which an arbitrary shuffle cannot honour.
    """
    after = watermark_span(m.dominating())
    yield "in order", list(spans)
    yield "in order, watermark after", list(spans) + [after]
    yield "in order, watermark before", (
        list(spans[:-1]) + [watermark_span(m.before), spans[-1]]
    )
    rng = random.Random(42)
    for i in range(2):
        shuffled = list(spans)
        rng.shuffle(shuffled)
        yield f"shuffled {i}", shuffled
        yield f"shuffled {i}, watermark after", shuffled + [after]


def convicts(m, spans, expected):
    """Referee and reference must fire exactly ``expected``."""
    for label, stream in streams(m, spans):
        assert referee_kinds(stream, m.compare) == {expected}, label
        assert reference_kinds(stream, m.compare) == {expected}, label


class Mutations:
    """One constructor per violation class."""

    def __init__(self):
        self.oracle = TimelineOracle()
        self.compare = decided_order(self.oracle)
        self.clocks = [VectorClock(2, 0), VectorClock(2, 1)]
        self.before = None  # set by each test: see streams()

    def dominating(self):
        """A stamp after everything issued so far, on both clocks."""
        self.clocks[0].observe(self.clocks[1].announce())
        return self.clocks[0].tick()


def test_duplicate_stamp_convicted():
    m = Mutations()
    ts = m.clocks[0].tick()
    m.before = m.clocks[0].tick()
    spans = [
        store(ts, 1, at=1.0),
        txn(0, ts, [("x", 0)], submitted=0.0, acked=1.0),
        txn(1, ts, [("y", 1)], submitted=2.0, acked=3.0),
    ]
    convicts(m, spans, "duplicate-stamp")


def test_commit_order_inversion_convicted():
    # Store serialized a before b, but the oracle decided b before a.
    # Submissions overlap in real time, so only commit-order fires.
    m = Mutations()
    ts_a = m.clocks[0].tick()
    m.before = m.clocks[0].tick()  # covers a, concurrent with b
    ts_b = m.clocks[1].tick()
    m.oracle.assign_order(ts_b, ts_a)
    spans = [
        store(ts_a, 1, at=10.0),
        txn(0, ts_a, [("x", 0)], submitted=0.0, acked=10.0),
        store(ts_b, 2, at=11.0),
        txn(1, ts_b, [("x", 1)], submitted=1.0, acked=11.0),
    ]
    convicts(m, spans, "commit-order")


def test_reordered_apply_convicted():
    # a is decided before b (same issuer), but shard 0 applied b first.
    # With the watermark ahead of it, a's apply is a straggler arriving
    # below a frontier that was already pruned down to b.
    m = Mutations()
    ts_a = m.clocks[0].tick()
    ts_b = m.clocks[0].tick()
    m.before = m.clocks[0].tick()
    spans = [
        store(ts_a, 1, at=1.0),
        txn(0, ts_a, [("x", 0)], submitted=0.0, acked=1.0),
        store(ts_b, 2, at=3.0),
        txn(1, ts_b, [("y", 1)], submitted=2.0, acked=3.0),
        apply_span(0, ts_b, seq=1),
        apply_span(0, ts_a, seq=2),
    ]
    convicts(m, spans, "apply-order")


def test_stale_read_convicted():
    # The read's timestamp is decided after both writes, yet it observed
    # the older one.  It overlaps the newer write in real time, so the
    # only conviction is stale-read.  With the watermark ahead of it the
    # observed write is already pruned to evidence.
    m = Mutations()
    ts_0 = m.clocks[0].tick()
    ts_1 = m.clocks[0].tick()
    m.before = m.clocks[0].tick()
    ts_read = m.clocks[0].tick()
    spans = [
        store(ts_0, 1, at=1.0),
        txn(0, ts_0, [("x", 0)], submitted=0.0, acked=1.0),
        store(ts_1, 2, at=4.0),
        txn(1, ts_1, [("x", 1)], submitted=2.0, acked=4.0),
        read_span(7, ts_read, [("x", 0)], submitted=3.0, done=5.0),
    ]
    convicts(m, spans, "stale-read")


def test_future_read_convicted():
    # The read observed a write whose timestamp is decided after the
    # read's own.
    m = Mutations()
    ts_read = m.clocks[0].tick()
    ts_0 = m.clocks[0].tick()
    m.before = m.clocks[0].tick()
    spans = [
        store(ts_0, 1, at=2.0),
        txn(0, ts_0, [("x", 0)], submitted=1.0, acked=2.0),
        read_span(7, ts_read, [("x", 0)], submitted=0.0, done=3.0),
    ]
    convicts(m, spans, "future-read")


def test_phantom_read_convicted():
    # The read reports a tag no committed transaction wrote.
    m = Mutations()
    ts_0 = m.clocks[0].tick()
    m.before = m.clocks[0].tick()
    ts_read = m.clocks[0].tick()
    spans = [
        store(ts_0, 1, at=2.0),
        txn(0, ts_0, [("x", 0)], submitted=1.0, acked=2.0),
        read_span(7, ts_read, [("x", 99)], submitted=1.5, done=3.0),
    ]
    convicts(m, spans, "phantom-read")


def test_real_time_write_inversion_convicted():
    # a was acked before b was even submitted, yet the decided order
    # puts a after b.  The store serialized them in the decided order
    # (b first), so commit-order stays clean — the conviction is purely
    # the external-consistency clause.
    m = Mutations()
    ts_a = m.clocks[0].tick()
    ts_b = m.clocks[1].tick()
    m.before = m.clocks[1].tick()  # covers b, concurrent with a
    m.oracle.assign_order(ts_b, ts_a)
    spans = [
        store(ts_b, 1, at=3.0),
        txn(1, ts_b, [("x", 1)], submitted=2.0, acked=3.0),
        store(ts_a, 2, at=1.0),
        txn(0, ts_a, [("x", 0)], submitted=0.0, acked=1.0),
    ]
    convicts(m, spans, "real-time-write")


def test_real_time_read_convicted():
    # A write acked long before the read was submitted, but the read
    # observed older state.  The decided order is silent (the read's
    # stamp is concurrent with both writes and the oracle never ruled),
    # so only the real-time clause can convict — and must.
    m = Mutations()
    ts_0 = m.clocks[0].tick()
    ts_1 = m.clocks[0].tick()
    m.before = m.clocks[0].tick()
    ts_read = m.clocks[1].tick()
    spans = [
        store(ts_0, 1, at=1.0),
        txn(0, ts_0, [("x", 0)], submitted=0.0, acked=1.0),
        store(ts_1, 2, at=2.0),
        txn(1, ts_1, [("x", 1)], submitted=1.5, acked=2.0),
        read_span(7, ts_read, [("x", 0)], submitted=5.0, done=6.0),
    ]
    convicts(m, spans, "real-time-read")


def two_reads_on_one_stamp(m, write_between):
    """The span shape a reused read stamp leaves (db/database.py,
    ``WritePath._stamp_program``): a write, then two ``program.read``
    records carrying one timestamp object under two query ids.  With
    ``write_between`` a second write to the vertex is stamped after the
    read stamp and acknowledged between the reads, and the second read
    — still on the old stamp — does not observe it."""
    ts_0 = m.clocks[0].tick()
    m.clocks[1].observe(m.clocks[0].announce())
    ts_read = m.clocks[1].tick()            # dominates ts_0
    m.clocks[0].observe(m.clocks[1].announce())
    spans = [
        store(ts_0, 1, at=1.0),
        txn(0, ts_0, [("x", 0)], submitted=0.0, acked=1.0),
        apply_span(0, ts_0, seq=1),
        read_span(7, ts_read, [("x", 0)], submitted=2.0, done=3.0),
    ]
    if write_between:
        ts_1 = m.clocks[0].tick()           # dominates ts_read
        spans += [
            store(ts_1, 2, at=5.0),
            txn(1, ts_1, [("x", 1)], submitted=4.0, acked=5.0),
        ]
    m.before = m.clocks[0].tick()
    spans.append(
        read_span(8, ts_read, [("x", 0)], submitted=6.0, done=7.0)
    )
    return spans


def test_two_reads_on_one_stamp_acquitted():
    # Nothing was acknowledged between them: one snapshot read twice is
    # what a reused stamp means, and it convicts nobody.
    m = Mutations()
    spans = two_reads_on_one_stamp(m, write_between=False)
    for label, stream in streams(m, spans):
        assert referee_kinds(stream, m.compare) == set(), label
        assert reference_kinds(stream, m.compare) == set(), label


def test_read_on_a_stamp_a_commit_should_have_retired_convicted():
    # The mutation for the reuse rule: had a commit failed to retire the
    # read stamp, the second read would run below an acknowledged write.
    # Timestamp order is silent (the read is decided before the write it
    # missed), so the real-time clause is what must catch it.
    m = Mutations()
    spans = two_reads_on_one_stamp(m, write_between=True)
    convicts(m, spans, "real-time-read")


def test_read_convicted_on_its_tag_still_owes_real_time():
    # A phantom or future read is convicted on the tag it reported, and
    # that must not excuse it from the real-time clause: it also missed
    # a write acked long before it was submitted.
    m = Mutations()
    ts_read = m.clocks[0].tick()
    ts_1 = m.clocks[0].tick()  # both writes are decided after the read
    ts_2 = m.clocks[0].tick()
    writes = [
        store(ts_1, 1, at=2.0),
        txn(1, ts_1, [("x", 1)], submitted=1.5, acked=2.0),
        store(ts_2, 2, at=3.0),
        txn(2, ts_2, [("x", 2)], submitted=2.5, acked=3.0),
    ]
    for observed_tag, expected in ((99, "phantom-read"), (1, "future-read")):
        spans = writes + [
            read_span(7, ts_read, [("x", observed_tag)],
                      submitted=9.0, done=9.5),
        ]
        want = {expected, "real-time-read"}
        assert referee_kinds(spans, m.compare) == want
        assert reference_kinds(spans, m.compare) == want


def test_clean_history_acquitted():
    # Control: the same shapes with the inversion removed convict nobody,
    # under every delivery.
    m = Mutations()
    ts_0 = m.clocks[0].tick()
    ts_1 = m.clocks[0].tick()
    m.before = m.clocks[0].tick()
    ts_read = m.clocks[0].tick()
    spans = [
        store(ts_0, 1, at=1.0),
        txn(0, ts_0, [("x", 0)], submitted=0.0, acked=1.0),
        store(ts_1, 2, at=3.0),
        txn(1, ts_1, [("x", 1)], submitted=2.0, acked=3.0),
        apply_span(0, ts_0, seq=1),
        apply_span(0, ts_1, seq=2),
        read_span(7, ts_read, [("x", 1)], submitted=4.0, done=5.0),
    ]
    for label, stream in streams(m, spans):
        assert referee_kinds(stream, m.compare) == set(), label
        assert reference_kinds(stream, m.compare) == set(), label


@pytest.mark.parametrize("watermark_first", (False, True))
def test_conviction_survives_watermark_pruning(watermark_first):
    # Settling half the history under a watermark must not lose the
    # evidence needed to convict the other half: a stale read arriving
    # after its observed write was pruned to a floor still fires.  The
    # evidence cache keeps the pruned write's tag and seq floor, so the
    # label stays fine-grained — "stale-read", not the "phantom-read"
    # downgrade the pre-evidence checker reported.
    m = Mutations()
    ts_0 = m.clocks[0].tick()
    ts_1 = m.clocks[0].tick()
    online = OnlineChecker(m.compare)
    writes = [
        store(ts_0, 1, at=1.0),
        txn(0, ts_0, [("x", 0)], submitted=0.0, acked=1.0),
        store(ts_1, 2, at=4.0),
        txn(1, ts_1, [("x", 1)], submitted=2.0, acked=4.0),
    ]
    for span in writes:
        online.consume(span)
    if watermark_first:
        online.advance_watermark(m.clocks[0].tick())
        assert online.stats.pruned > 0
        assert online.stats.evidence_records > 0
    ts_read = m.clocks[0].tick()
    online.consume(
        read_span(7, ts_read, [("x", 0)], submitted=3.0, done=5.0)
    )
    assert kinds(online.finalize()) == {"stale-read"}
    if watermark_first:
        assert online.stats.evidence_hits > 0


def test_store_seq_survives_pruning_for_late_commit():
    # Deadline-delayed acks make the client's txn.commit span trail the
    # store.commit span by up to a region reach; a GC tick between them
    # used to prune the queued store seq, leaving the online checker a
    # provisional arrival-index seq while History joined the real one —
    # a digest mismatch with no real violation.  The evidence cache now
    # retains pruned store seqs for exactly this join.
    m = Mutations()
    ts = m.clocks[0].tick()
    history = History()
    online = OnlineChecker(m.compare)
    first = store(ts, 7, at=1.0)
    history.consume(first)
    online.consume(first)
    online.advance_watermark(m.clocks[0].tick())
    assert online.stats.pruned > 0
    late = txn(0, ts, [("x", 0)], submitted=0.0, acked=9.0)
    history.consume(late)
    online.consume(late)
    assert online.stats.evidence_hits > 0
    assert online.finalize() == []
    assert online.digest() == history.digest()


def test_evidence_cache_seq_namespace_roundtrip():
    from repro.verify.online import EvidenceCache

    cache = EvidenceCache(capacity=2)
    cache.record_seqs((0, 0, 1), [4, 5])
    assert cache.take_seq((0, 0, 1)) == 4
    assert cache.take_seq((0, 0, 1)) == 5
    assert cache.take_seq((0, 0, 1)) is None
    # Capacity bounds the seq namespace with insertion-order eviction.
    cache.record_seqs((0, 0, 2), [1])
    cache.record_seqs((0, 0, 3), [2])
    cache.record_seqs((0, 0, 4), [3])
    assert cache.take_seq((0, 0, 2)) is None  # evicted
    assert cache.take_seq((0, 0, 4)) == 3


def test_phantom_read_still_fires_for_unknown_tag():
    # The evidence cache must not blunt the phantom conviction: a tag
    # nobody ever committed (pruned or not) is still a phantom.
    m = Mutations()
    ts_0 = m.clocks[0].tick()
    online = OnlineChecker(m.compare)
    online.consume(store(ts_0, 1, at=1.0))
    online.consume(txn(0, ts_0, [("x", 0)], submitted=0.0, acked=1.0))
    online.advance_watermark(m.clocks[0].tick())
    ts_read = m.clocks[0].tick()
    online.consume(
        read_span(9, ts_read, [("x", 999)], submitted=3.0, done=5.0)
    )
    assert "phantom-read" in kinds(online.finalize())
