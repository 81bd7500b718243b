"""The referee: one strict-serializability rule set, streaming or not.

:class:`OnlineChecker` is a :class:`~repro.verify.history.History` (the
span-to-record adapter: join, order keys, digests) plus the only
statement of the eight violation rules in the repo.  After the online
timestamp-based checkers of arXiv:2504.01477, the streaming mode is not
a second algorithm: it is the end-of-run algorithm plus out-of-order
arrival and garbage collection.  After the vector-clock atomicity
checkers of arXiv:2001.04961, commit order and real time are one pass
over per-vertex windows.

* **No watermark: the offline referee.**  Records stay *pending* until
  a watermark or ``finalize()`` settles them, so a referee that is never
  handed a ``gc.watermark`` span retains the whole run and settles it
  all at the end — the verdict ``HistoryChecker`` returns.  There is no
  ``prune`` switch: withholding the watermark is the switch.

* **Order-keyed records.**  Every span carries its own logical position
  (the backing store's commit version on ``store.commit``, the shard's
  ``(epoch, apply_seq)`` on ``shard.apply``), so arrival order is
  irrelevant: records are compared in *logical* order no matter how the
  transport shuffled their spans.

* **Watermark settlement.**  A ``gc.watermark`` span announces that
  everything below a timestamp is final (the deployment emits it just
  before the oracle's ``collect_below`` — i.e. while the decisions the
  checks need are still queryable).  A settled event is checked once,
  against the retained window, and never revisited: amortized O(1)
  comparisons per event when the watermark advances steadily, because
  the window holds only the events of one watermark interval plus one
  *floor* write per live vertex and each shard's apply frontier.

What windowing gives up: pairs that straddle a pruned window boundary
(two same-vertex writes more than one floor apart) are not re-compared,
so a referee given watermarks can miss a violation the same referee
without them would catch — and conversely it can *catch* one whose
oracle decision a later GC discards before an end-of-run check runs.
Neither settling nor pruning touches the digest accumulators, so the two
digest identically on every prefix (``tests/test_online_checker.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.vclock import Ordering, VectorTimestamp
from .history import (
    CommittedWrite,
    DecidedOrder,
    History,
    ShardApply,
    StampId,
    Violation,
)


class EvidenceCache:
    """Bounded, durable trail of pruned commits (tag -> identity).

    Watermark pruning deletes a retained commit's tag entry once no
    write window references it, which used to cost the checker its
    fine-grained verdict: a read settling *below* the pruning floor that
    observed a pruned tag could no longer be told apart from a read of a
    tag nobody ever committed, so both were convicted as phantom reads.
    This cache keeps the evidence needed to tell them apart — the pruned
    commit's tag, stamp id, and store commit seq — in a
    :class:`~repro.store.durable.DurableStore` version chain (the
    durable home the store layer already maintains for committed state),
    bounded by ``capacity`` with insertion-order eviction.
    """

    PREFIX = "__evidence__:"
    SEQ_PREFIX = "__seq__:"

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("evidence capacity must be >= 1")
        from ..store.durable import DurableStore

        self._store = DurableStore(":memory:")
        self._capacity = capacity
        self._order: List[Any] = []  # tags, insertion order
        self._seq_order: List[StampId] = []  # stamp ids, insertion order

    def _put(self, prefix: str, order: list, ident, merge) -> None:
        """Write ``merge(existing)`` under ``ident``, then evict the
        namespace's oldest entries down to capacity."""
        tx = self._store.begin()
        existing = tx.get(prefix + repr(ident))
        if existing is None:
            order.append(ident)
        tx.put(prefix + repr(ident), merge(existing))
        while len(order) > self._capacity:
            tx.delete(prefix + repr(order.pop(0)))
        tx.commit()

    def record(self, tag, stamp_id: StampId, commit_seq: int) -> None:
        """Retain one pruned commit's identity, evicting the oldest."""
        self._put(
            self.PREFIX, self._order, tag,
            lambda _old: (stamp_id, commit_seq),
        )

    def lookup(self, tag) -> Optional[Tuple[StampId, int]]:
        """The (stamp id, commit seq) evidence for ``tag``, or None."""
        return self._store.get(self.PREFIX + repr(tag))

    def record_seqs(self, stamp_id: StampId, seqs: List[int]) -> None:
        """Retain store commit seqs whose ``txn.commit`` span is still
        in flight when the watermark covers them — routine under
        deadline-delayed geo acks, where the client span trails the
        store span by up to the region's reach."""
        if seqs:
            self._put(
                self.SEQ_PREFIX, self._seq_order, stamp_id,
                lambda old: list(old or ()) + list(seqs),
            )

    def take_seq(self, stamp_id: StampId) -> Optional[int]:
        """Pop the oldest retained seq for ``stamp_id``, or None."""
        tx = self._store.begin()
        key = self.SEQ_PREFIX + repr(stamp_id)
        seqs = tx.get(key)
        if not seqs:
            tx.abort()
            return None
        seq = seqs[0]
        if len(seqs) > 1:
            tx.put(key, seqs[1:])
        else:
            tx.delete(key)
            self._seq_order.remove(stamp_id)
        tx.commit()
        return seq


def _store_order(commit: CommittedWrite):
    """Backing-store commit order; arrival breaks provisional ties."""
    return (commit.commit_seq, commit.arrival)


class OnlineChecker(History):
    """The referee: a History that settles, checks, and may forget.

    ``compare`` is the decided-order relation (see
    :func:`~repro.verify.history.decided_order`).  Attach with
    :meth:`attach` (or feed :meth:`consume` / ``record_*`` directly), let
    the deployment's ``gc.watermark`` spans, if any, drive settlement,
    and call :meth:`finalize` at end of run to settle the rest and get
    the verdict.  The inherited ``commits`` / ``reads`` / ``applies``
    are the pending (unsettled) records.
    """

    def __init__(self, compare: DecidedOrder, registry=None) -> None:
        super().__init__()
        self.compare = compare
        # Pruned-commit evidence: lets reads settling below the pruning
        # floor keep the fine-grained stale-vs-phantom verdict.  Created
        # lazily (first prune), so checkers on runs that never prune pay
        # nothing.
        self._evidence: Optional[EvidenceCache] = None
        # Pending commits by vertex: a read settling now must still see
        # the same-vertex writes that have not settled yet.
        self._pending_by_vertex: Dict[str, List[CommittedWrite]] = {}
        # Settled, retained context (watermark-pruned).
        self._writes: Dict[str, List[CommittedWrite]] = {}  # per vertex
        self._frontier: Dict[int, List[ShardApply]] = {}  # maximal applies
        self._stamps: Dict[StampId, CommittedWrite] = {}  # pending+retained
        self._tags: Dict[Any, CommittedWrite] = {}
        self._violations: List[Violation] = []
        self._fired: set = set()
        if registry is not None:
            self.register_metrics(registry)

    # -- intake (the join and its counters are History's) ---------------

    def consume(self, span) -> None:
        """Fold one span into the checker; unrelated kinds are ignored."""
        if span.kind == "gc.watermark":
            self.advance_watermark(span.attr("ts"))
        else:
            super().consume(span)

    def record_commit(
        self, tag, ts, writes, submitted_at, acked_at, commit_seq=None
    ) -> CommittedWrite:
        commit = super().record_commit(
            tag, ts, writes, submitted_at, acked_at, commit_seq
        )
        other = self._stamps.get(ts.id)
        if other is not None:
            # Committed timestamps are transaction identities (section
            # 3.3): two commits must never share one.
            self._fire(
                "duplicate-stamp", ts.id,
                f"transactions {other.tag} and {commit.tag} share "
                f"timestamp {ts}",
                other, commit, repeat=True,
            )
        else:
            self._stamps[ts.id] = commit
        self._tags[commit.tag] = commit
        for vertex in dict(commit.writes):
            self._pending_by_vertex.setdefault(vertex, []).append(commit)
        return commit

    def _recall_seq(self, stamp_id: StampId) -> Optional[int]:
        # The store span may have been watermark-pruned while this
        # deadline-delayed ack was in flight; the evidence cache kept
        # its seq.
        if self._evidence is None:
            return None
        seq = self._evidence.take_seq(stamp_id)
        if seq is not None:
            self.stats.evidence_hits += 1
        return seq

    # -- settlement -----------------------------------------------------

    def advance_watermark(self, watermark: VectorTimestamp) -> None:
        """Settle and prune everything below ``watermark``.

        Call while the oracle's decisions below the watermark are still
        live (the deployments emit ``gc.watermark`` spans just before
        ``collect_below``, so an attached checker gets this for free).
        """
        self.stats.watermarks += 1
        self._settle(watermark)
        self._prune(watermark)
        self._refresh_window()

    def finalize(self) -> List[Violation]:
        """Settle the remaining tail and return every violation found."""
        self._settle(None)
        self._refresh_window()
        return list(self._violations)

    def window_size(self) -> int:
        """Retained records: pending events + write windows + frontiers."""
        self._refresh_window()
        return self.stats.window_total

    # -- internals ------------------------------------------------------

    @staticmethod
    def _covered(
        ts: VectorTimestamp, watermark: Optional[VectorTimestamp]
    ) -> bool:
        # The settlement predicate is exactly the GC predicate
        # (oracle.collect_below): strictly happens-before the watermark.
        return watermark is None or ts.compare(watermark) is Ordering.BEFORE

    def _fire(self, kind, subject, detail, first, second, repeat=False):
        """Record one violation; unless ``repeat``, the first offending
        pair per (rule, subject) speaks for the rest."""
        if not repeat:
            if (kind, subject) in self._fired:
                return
            self._fired.add((kind, subject))
        self.stats.violations += 1
        self._violations.append(
            Violation(kind, detail, first, second, subject)
        )

    def _settle(self, watermark: Optional[VectorTimestamp]) -> None:
        self._settle_commits(watermark)
        self._settle_applies(watermark)
        self._settle_reads(watermark)

    def _take_covered(self, pending: list, watermark) -> list:
        taken, kept = [], []
        for event in pending:
            if self._covered(event.ts, watermark):
                taken.append(event)
            else:
                kept.append(event)
        if taken:
            pending[:] = kept
        return taken

    def _settle_commits(self, watermark) -> None:
        batch = self._take_covered(self.commits, watermark)
        if not batch:
            return
        self.stats.settled += len(batch)
        batch.sort(key=_store_order)
        touched = set()
        for commit in batch:
            for vertex in dict(commit.writes):
                window = self._writes.setdefault(vertex, [])
                self._check_commit(vertex, window, commit)
                # Insert in store order; windows are short and batches
                # arrive mostly sorted, so scan from the end.
                i = len(window)
                while i and _store_order(window[i - 1]) > _store_order(commit):
                    i -= 1
                window.insert(i, commit)
                commit.refs += 1
                touched.add(vertex)
        # One rebuild per touched vertex per batch: removing commit by
        # commit is quadratic when nothing was ever settled before.
        settled = set(map(id, batch))
        for vertex in touched:
            left = [
                c for c in self._pending_by_vertex[vertex]
                if id(c) not in settled
            ]
            if left:
                self._pending_by_vertex[vertex] = left
            else:
                del self._pending_by_vertex[vertex]

    def _check_commit(self, vertex, window, commit) -> None:
        """Same-vertex commits: decided timestamp order must agree with
        backing-store commit order (section 4.2's monotonicity rule),
        and with real time (strictness: an operation acknowledged before
        another begins must not serialize after it)."""
        for other in window:
            if _store_order(other) <= _store_order(commit):
                earlier, later = other, commit
            else:
                earlier, later = commit, other
            order = self.compare(earlier.ts, later.ts)
            if order is Ordering.AFTER:
                self._fire(
                    "commit-order", vertex,
                    f"writes to {vertex!r}: tx {earlier.tag} committed "
                    f"before tx {later.tag} but its timestamp is decided "
                    f"after",
                    earlier, later,
                )
            for first, second, decided_after in (
                (earlier, later, order is Ordering.AFTER),
                (later, earlier, order is Ordering.BEFORE),
            ):
                if decided_after and first.acked_at < second.submitted_at:
                    self._fire(
                        "real-time-write", vertex,
                        f"tx {first.tag} on {vertex!r} was acked before "
                        f"tx {second.tag} was submitted, yet is decided "
                        f"after it",
                        first, second,
                    )

    def _settle_applies(self, watermark) -> None:
        """Each shard's apply sequence must be a linear extension of the
        decided order (the Fig 6 loop's whole job)."""
        for shard, pending in list(self.applies.items()):
            batch = self._take_covered(pending, watermark)
            if not batch:
                continue
            self.stats.settled += len(batch)
            batch.sort(key=lambda a: (a.key, a.arrival))
            frontier = self._frontier.setdefault(shard, [])
            for record in batch:
                # Only applies of *known* commits are order-checked (a
                # commit whose txn.commit span never arrived has no
                # decided position to defend).
                if record.ts.id not in self._stamps:
                    continue
                kept: List[ShardApply] = []
                for front in frontier:
                    # `record` may be a late straggler: applied earlier
                    # by key even though it settles after `front`.
                    if front.key <= record.key:
                        earlier, later = front, record
                    else:
                        earlier, later = record, front
                    order = self.compare(earlier.ts, later.ts)
                    if order is Ordering.AFTER:
                        first = self._stamps.get(earlier.ts.id, earlier)
                        second = self._stamps.get(later.ts.id, later)
                        tag_a = getattr(first, "tag", earlier.ts.id)
                        tag_b = getattr(second, "tag", later.ts.id)
                        self._fire(
                            "apply-order", shard,
                            f"shard {shard} applied tx {tag_a} before tx "
                            f"{tag_b} against the decided timestamp order",
                            first, second,
                        )
                    if order is Ordering.BEFORE and earlier is front:
                        continue  # dominated: safe to forget
                    kept.append(front)
                kept.append(record)
                self._frontier[shard] = frontier = kept
            if not pending:
                del self.applies[shard]

    def _settle_reads(self, watermark) -> None:
        """Each program read must land exactly at its timestamp: it sees
        the newest same-vertex write decided before it, nothing decided
        after it, and every write acked before it was submitted."""
        batch = self._take_covered(self.reads, watermark)
        self.stats.settled += len(batch)
        for read in batch:
            for vertex, observed_tag in read.reads:
                self._check_read(read, vertex, observed_tag)

    def _check_read(self, read, vertex, observed_tag) -> None:
        subject = (read.query_id, vertex)
        floor = -1  # newest commit_seq the read is known to have seen
        placed = True  # False once the observed tag itself is convicted
        observed = self._tags.get(observed_tag)
        if observed is not None:
            floor = observed.commit_seq
            if self.compare(observed.ts, read.ts) is Ordering.AFTER:
                placed = False
                self._fire(
                    "future-read", subject,
                    f"program {read.query_id} on {vertex!r} observed tx "
                    f"{observed.tag}, decided after the program's "
                    f"timestamp",
                    read, observed, repeat=True,
                )
        elif observed_tag is not None:
            evidence = (
                self._evidence.lookup(observed_tag)
                if self._evidence is not None
                else None
            )
            if evidence is None:
                placed = False
                self._fire(
                    "phantom-read", subject,
                    f"program {read.query_id} read tag {observed_tag!r} "
                    f"on {vertex!r}, which no committed transaction wrote",
                    read, None, repeat=True,
                )
            else:
                # The tag was real but pruned: judge the read with the
                # evidenced seq floor.  (The decided-after check needs the
                # pruned stamp itself and is skipped — a pruned commit
                # settled far below this read's watermark interval.)
                self.stats.evidence_hits += 1
                floor = evidence[1]
        chain = self._writes.get(vertex, []) + self._pending_by_vertex.get(
            vertex, []
        )
        if placed:
            for newer in chain:
                if newer.commit_seq > floor and self.compare(
                    newer.ts, read.ts
                ) is Ordering.BEFORE:
                    self._fire(
                        "stale-read", subject,
                        f"program {read.query_id} on {vertex!r} missed tx "
                        f"{newer.tag}, decided before the program's "
                        f"timestamp",
                        read, newer,
                    )
                    break
        for write in chain:
            if write.commit_seq > floor and (
                write.acked_at < read.submitted_at
            ):
                self._fire(
                    "real-time-read", subject,
                    f"program {read.query_id} on {vertex!r} missed tx "
                    f"{write.tag}, acked before the program was submitted",
                    read, write,
                )
                break

    # -- pruning --------------------------------------------------------

    def _release(self, commit: CommittedWrite) -> None:
        commit.refs -= 1
        if commit.refs > 0:
            return
        if self._stamps.get(commit.ts.id) is commit:
            del self._stamps[commit.ts.id]
        if self._tags.get(commit.tag) is commit:
            # The tag leaves the live index; keep its identity in the
            # bounded evidence cache so a later-settling read of this
            # tag is judged stale (with the right seq floor), not
            # hallucinated (a phantom, PR 7's downgrade).
            self._ensure_evidence().record(
                commit.tag, commit.ts.id, commit.commit_seq
            )
            self.stats.evidence_records += 1
            del self._tags[commit.tag]

    def _ensure_evidence(self) -> EvidenceCache:
        if self._evidence is None:
            self._evidence = EvidenceCache()
        return self._evidence

    def _prune(self, watermark: VectorTimestamp) -> None:
        for vertex in list(self._writes):
            window = self._writes[vertex]
            floor_idx = None
            for i in range(len(window) - 1, -1, -1):
                if self._covered(window[i].ts, watermark):
                    floor_idx = i
                    break
            if floor_idx:  # keep the newest covered write as the floor
                for dead in window[:floor_idx]:
                    self._release(dead)
                del window[:floor_idx]
                self.stats.pruned += floor_idx
        for shard, frontier in self._frontier.items():
            if len(frontier) <= 1:
                continue
            keep = [
                f for f in frontier if not self._covered(f.ts, watermark)
            ]
            if not keep:
                keep = [max(frontier, key=lambda f: f.key)]
            self.stats.pruned += len(frontier) - len(keep)
            self._frontier[shard] = keep
        # Queued store seqs below the watermark leave the live index,
        # but their evidence is retained: under deadline-delayed geo
        # acks the client's txn.commit span routinely trails the store
        # span past a GC tick, and the join must still land on the real
        # seq or the digest diverges from a referee that never prunes.
        for stamp_id, (ts, seqs) in list(self._store_seqs.items()):
            if self._covered(ts, watermark):
                self._ensure_evidence().record_seqs(stamp_id, seqs)
                self.stats.evidence_records += 1
                del self._store_seqs[stamp_id]
                self.stats.pruned += 1
        for stamp_id, commits in list(self._unpatched.items()):
            if all(self._covered(c.ts, watermark) for c in commits):
                del self._unpatched[stamp_id]

    def _refresh_window(self) -> None:
        stats = self.stats
        stats.window_pending = (
            len(self.commits)
            + len(self.reads)
            + sum(len(v) for v in self.applies.values())
        )
        stats.window_writes = sum(len(w) for w in self._writes.values())
        stats.window_frontier = sum(
            len(f) for f in self._frontier.values()
        )
        stats.window_total = (
            stats.window_pending + stats.window_writes
            + stats.window_frontier
        )
        stats.window_peak = max(stats.window_peak, stats.window_total)

    # -- metrics --------------------------------------------------------

    def register_metrics(self, registry) -> None:
        """Export counters and gauges under ``checker.*`` /
        ``checker.window.*`` (see tools/check_stats_registry.py)."""
        from ..obs.collect import scalar_fields

        def collect() -> Dict[str, float]:
            self._refresh_window()
            out = {}
            for key, value in scalar_fields(self.stats).items():
                if key.startswith("window_"):
                    out[f"checker.window.{key[len('window_'):]}"] = value
                else:
                    out[f"checker.{key}"] = value
            return out

        registry.register_collector(collect)
