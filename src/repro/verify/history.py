"""History recording: the span-to-record adapter the referee is built on.

The paper's headline guarantee (sections 3-4) is that Weaver executions
are **strictly serializable**: there is one total order over committed
transactions and node programs that (a) every replica's behaviour is
consistent with and (b) respects real time.  The refinable-timestamp
machinery is supposed to deliver this through failures; the referee in
:mod:`repro.verify.online` says whether it actually did.  This module is
its intake: it turns a run's observable events into order-keyed records.

Approach (after the online timestamp-based checkers of Li et al.,
arXiv:2504.01477): record, during a run, every committed transaction
(with its refinable timestamp and its position in backing-store commit
order), every node-program read (with its execution timestamp and the
writer tags it observed), and every shard's apply sequence.  The records
are then compared against the *decided* timestamp order — vector clocks
plus the timeline oracle's irreversible commitments and their transitive
closure, never minting new decisions.

The serialization order for writes to one vertex is anchored on the
backing store's commit order (section 4.2: the store's acyclic
transactions commit before forwarding, and the oracle's arrival-order
tiebreak extends that order to the shards).  A pair the oracle never
decided is reported as consistent: an undecided pair is by construction
one that no shard and no program ever had to order, so no observer could
distinguish the two serializations.

There is one rule set, in :class:`~repro.verify.online.OnlineChecker`,
which *is* a :class:`History`: handed ``gc.watermark`` spans it settles
and forgets as it goes; handed none — a plain :class:`History` never
forwards one — it retains the whole run and its ``finalize()`` is the
end-of-run verdict :class:`HistoryChecker` returns.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.vclock import Ordering, VectorTimestamp

#: compare(a, b) -> Ordering or None: the decided order of two stamps.
DecidedOrder = Callable[
    [VectorTimestamp, VectorTimestamp], Optional[Ordering]
]

StampId = Tuple[int, int, int]


def decided_order(oracle) -> DecidedOrder:
    """The decided-order relation backed by a timeline oracle.

    Vector clocks answer related pairs; for concurrent pairs the oracle
    reports only pre-established commitments (``established_order``
    never decides and never counts), so checking a history perturbs
    neither the ordering state nor the client-visible request counters.
    """
    def compare(
        a: VectorTimestamp, b: VectorTimestamp
    ) -> Optional[Ordering]:
        if a.id == b.id:
            return None
        order = a.compare(b)
        if order is not Ordering.CONCURRENT:
            return order
        return oracle.established_order(a, b)

    return compare


@dataclass(eq=False)
class CommittedWrite:
    """One committed transaction, as the client and store saw it.

    Mutable: ``commit_seq`` is provisional until the matching
    ``store.commit`` span back-patches it.  Compared by identity.
    """

    tag: int
    ts: VectorTimestamp
    commit_seq: int
    writes: Tuple[Tuple[str, Any], ...]  # (vertex, value written)
    submitted_at: float
    acked_at: float
    arrival: int  # position in the stream; breaks commit_seq ties
    refs: int = 0  # referee write windows currently retaining this


@dataclass(eq=False)
class ProgramRead:
    """One node-program execution and the writer tags it observed."""

    query_id: int
    ts: VectorTimestamp
    reads: Tuple[Tuple[str, Any], ...]  # (vertex, observed tag or None)
    submitted_at: float
    completed_at: float


@dataclass(eq=False)
class ShardApply:
    """One shard apply, positioned by the shard's own order key."""

    shard: int
    key: Tuple[int, int]  # (epoch, apply_seq)
    ts: VectorTimestamp
    arrival: int  # position in the stream; breaks key ties


@dataclass(frozen=True)
class Violation:
    """One strict-serializability violation: the first offending pair.

    ``subject`` is what the rule fired on: a vertex (write rules), a
    shard (apply order), ``(query_id, vertex)`` (read rules), a stamp id.
    """

    kind: str
    detail: str
    first: Any
    second: Any
    subject: Any = None

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


_DIGEST_SPACE = 1 << 256


class StreamDigest:
    """Order-independent multiset digest over order-keyed entries.

    Each entry is hashed independently and folded into a commutative
    accumulator (sum mod 2**256), so the digest is invariant under the
    *arrival* order of entries while still pinning the *logical* order —
    every entry embeds its own order key (store commit version, shard
    apply position).  ``discard`` supports back-patching: when a
    provisional entry is later refined (a ``txn.commit`` recorded before
    its ``store.commit`` arrived), the old encoding is subtracted and
    the corrected one added, in O(1).
    """

    __slots__ = ("_acc", "_count")

    def __init__(self) -> None:
        self._acc = 0
        self._count = 0

    @staticmethod
    def _fold(entry: Tuple) -> int:
        return int.from_bytes(
            hashlib.sha256(repr(entry).encode("utf-8")).digest(), "big"
        )

    def add(self, entry: Tuple) -> None:
        self._acc = (self._acc + self._fold(entry)) % _DIGEST_SPACE
        self._count += 1

    def discard(self, entry: Tuple) -> None:
        self._acc = (self._acc - self._fold(entry)) % _DIGEST_SPACE
        self._count -= 1

    def state(self) -> Tuple[int, int]:
        return (self._count, self._acc)


def commit_entry(c: CommittedWrite) -> Tuple:
    """Canonical encoding of one commit record (order key embedded)."""
    return (
        "commit", c.tag, c.ts.epoch, c.ts.issuer, c.ts.clocks,
        c.commit_seq, c.writes, c.submitted_at, c.acked_at,
    )


def read_entry(r: ProgramRead) -> Tuple:
    return (
        "read", r.query_id, r.ts.epoch, r.ts.issuer, r.ts.clocks,
        r.reads, r.submitted_at, r.completed_at,
    )


def apply_entry(a: ShardApply) -> Tuple:
    return ("apply", a.shard, a.key, a.ts.id)


class CheckerStats:
    """Counters and window gauges, exported as ``checker.*``: intake
    counts are kept by :class:`History`, the rest by the referee."""

    def __init__(self) -> None:
        self.events = 0
        self.commits = 0
        self.reads = 0
        self.applies = 0
        self.store_joins = 0
        self.watermarks = 0
        self.settled = 0
        self.pruned = 0
        self.violations = 0
        self.evidence_records = 0
        self.evidence_hits = 0
        self.window_pending = 0
        self.window_writes = 0
        self.window_frontier = 0
        self.window_total = 0
        self.window_peak = 0


class History:
    """One run's observable events as order-keyed records.

    A tracer sink (:meth:`attach`) or a direct recorder (``record_*``).
    ``commits`` / ``reads`` / ``applies`` hold, in arrival order, every
    record that has not been settled; only the referee subclass settles,
    so on a plain History they are the whole run.
    """

    def __init__(self) -> None:
        self.commits: List[CommittedWrite] = []
        self.reads: List[ProgramRead] = []
        # Per shard, NOPs excluded.
        self.applies: Dict[int, List[ShardApply]] = {}
        # Cumulative intake counts; ``commits`` and ``applies`` double as
        # the next record's arrival index.
        self.stats = CheckerStats()
        self._commit_digest = StreamDigest()
        self._read_digest = StreamDigest()
        self._apply_digests: Dict[int, StreamDigest] = {}
        self._apply_fallback: Dict[int, int] = {}
        # The store.commit <-> txn.commit join, free of arrival order:
        # versions seen before their txn.commit span (ts.id -> the stamp
        # and a FIFO of versions), and commits recorded before their
        # store.commit span (ts.id -> FIFO of provisional records).
        self._store_seqs: Dict[
            StampId, Tuple[VectorTimestamp, List[int]]
        ] = {}
        self._unpatched: Dict[StampId, List[CommittedWrite]] = {}

    # -- recording ------------------------------------------------------

    def record_commit(
        self,
        tag: int,
        ts: VectorTimestamp,
        writes,
        submitted_at: float,
        acked_at: float,
        commit_seq: Optional[int] = None,
    ) -> CommittedWrite:
        """Record one committed transaction.

        ``commit_seq`` is the backing store's commit version when known
        (the ``store.commit`` span carries it).  Without one, the
        arrival counter stands in — exact for callers that invoke this
        in backing-store commit order, and provisional for span streams,
        where a later :meth:`record_store_commit` back-patches the true
        version.
        """
        arrival = self.stats.commits
        self.stats.commits += 1
        self.stats.events += 1
        seq = commit_seq
        if seq is None:
            queued = self._store_seqs.get(ts.id)
            if queued:
                seq = queued[1].pop(0)
                if not queued[1]:
                    del self._store_seqs[ts.id]
            else:
                seq = self._recall_seq(ts.id)
        commit = CommittedWrite(
            tag, ts, arrival if seq is None else seq, tuple(writes),
            submitted_at, acked_at, arrival,
        )
        if seq is None:
            self._unpatched.setdefault(ts.id, []).append(commit)
        self.commits.append(commit)
        self._commit_digest.add(commit_entry(commit))
        return commit

    def _recall_seq(self, stamp_id: StampId) -> Optional[int]:
        """A store version this record stream no longer holds live.
        A plain History forgets nothing, so there is never one."""
        return None

    def record_store_commit(self, ts: VectorTimestamp, seq: int) -> None:
        """Join one backing-store commit version to its commit record.

        Arrival order is free: a version arriving first is queued for
        the matching :meth:`record_commit`; one arriving second
        back-patches the provisional record (and its digest entry).
        """
        self.stats.store_joins += 1
        self.stats.events += 1
        pending = self._unpatched.get(ts.id)
        if pending:
            commit = pending.pop(0)
            if not pending:
                del self._unpatched[ts.id]
            self._commit_digest.discard(commit_entry(commit))
            commit.commit_seq = seq
            self._commit_digest.add(commit_entry(commit))
        else:
            self._store_seqs.setdefault(ts.id, (ts, []))[1].append(seq)

    def record_read(
        self,
        query_id: int,
        ts: VectorTimestamp,
        reads,
        submitted_at: float,
        completed_at: float,
    ) -> None:
        read = ProgramRead(
            query_id, ts, tuple(reads), submitted_at, completed_at
        )
        self.stats.reads += 1
        self.stats.events += 1
        self.reads.append(read)
        self._read_digest.add(read_entry(read))

    def record_apply(
        self,
        shard_index: int,
        ts: VectorTimestamp,
        key: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Record one shard apply.

        ``key`` is the shard's own ``(epoch, apply_seq)`` position when
        the span carries one; otherwise arrival order stands in (exact
        for in-order streams and hand-built histories).  The true apply
        order is the records sorted by ``(key, arrival)`` — identical to
        arrival order for in-order streams, and the recovered order when
        process-transport replies delivered spans shuffled.
        """
        if key is None:
            n = self._apply_fallback.get(shard_index, 0)
            self._apply_fallback[shard_index] = n + 1
            key = (0, n)
        record = ShardApply(shard_index, key, ts, self.stats.applies)
        self.stats.applies += 1
        self.stats.events += 1
        self.applies.setdefault(shard_index, []).append(record)
        self._apply_digests.setdefault(shard_index, StreamDigest()).add(
            apply_entry(record)
        )

    # -- trace-stream consumption ---------------------------------------

    def attach(self, tracer) -> None:
        """Subscribe :meth:`consume` to a trace stream (``repro.obs``).

        Spans may arrive out of trace order (process-transport replies
        batch worker spans): records carry their own order keys, so the
        recovered history is delivery-order independent.
        """
        tracer.add_sink(self.consume)

    def consume(self, span) -> None:
        """Fold one span into the history: deployment spans
        (``shard.apply``, ``store.commit``) and the workload-level
        ``txn.commit`` / ``program.read``; other kinds are ignored."""
        kind = span.kind
        if kind == "shard.apply":
            apply_seq = span.attr("apply_seq")
            key = (
                (span.attr("epoch", 0), apply_seq)
                if apply_seq is not None
                else None
            )
            self.record_apply(span.attr("shard"), span.attr("ts"), key=key)
        elif kind == "store.commit":
            seq = span.attr("commit_seq")
            if seq is not None:
                self.record_store_commit(span.attr("ts"), seq)
        elif kind == "txn.commit":
            self.record_commit(
                span.attr("tag"),
                span.attr("ts"),
                span.attr("writes"),
                span.attr("submitted_at"),
                span.at,
            )
        elif kind == "program.read":
            self.record_read(
                span.attr("query_id"),
                span.attr("ts"),
                span.attr("reads"),
                span.attr("submitted_at"),
                span.at,
            )

    # -- reproducibility ------------------------------------------------

    def canonical(self) -> Tuple:
        """A deterministic, value-only rendering of the whole history."""
        return (
            tuple(commit_entry(c) for c in self.commits),
            tuple(read_entry(r) for r in self.reads),
            tuple(
                (shard, tuple(a.ts.id for a in seq))
                for shard, seq in sorted(self.applies.items())
            ),
        )

    def digest(self) -> str:
        """SHA-256 over the order-keyed record multiset.

        Equal digests mean bit-for-bit identical histories up to span
        delivery order: every record embeds its own logical position
        (commit version, apply key) and folds into a commutative
        accumulator.  Settling and pruning never touch the accumulators,
        so a referee that is handed watermarks digests the same as one
        that is not, on every prefix.
        """
        parts = (
            "history-v2",
            self._commit_digest.state(),
            self._read_digest.state(),
            tuple(
                (shard, digest.state())
                for shard, digest in sorted(self._apply_digests.items())
            ),
        )
        return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


class HistoryChecker:
    """The end-of-run verdict on one :class:`History`.

    ``compare`` is the decided-order relation (see :func:`decided_order`).
    :meth:`check` returns every violation found, first offending pair per
    (rule, subject); an empty list certifies the history.
    """

    def __init__(self, history: History, compare: DecidedOrder):
        self.history = history
        self.compare = compare

    def check(self) -> List[Violation]:
        """Replay the records into a referee that never sees a
        watermark, and return its final verdict."""
        from .online import OnlineChecker  # which builds on this module

        referee = OnlineChecker(self.compare)
        for c in self.history.commits:
            referee.record_commit(
                c.tag, c.ts, c.writes, c.submitted_at, c.acked_at,
                c.commit_seq,
            )
        for r in self.history.reads:
            referee.record_read(
                r.query_id, r.ts, r.reads, r.submitted_at, r.completed_at
            )
        for shard, sequence in self.history.applies.items():
            for a in sequence:
                referee.record_apply(shard, a.ts, a.key)
        return referee.finalize()
