"""Shard servers: in-memory graph partitions obeying refinable order.

A shard holds one partition of the multi-version graph and applies
committed transactions to it in refinable-timestamp order (section 4.2,
Fig 6).  The mechanics:

* one priority queue of incoming transactions **per gatekeeper** — a
  single gatekeeper's stamps are totally ordered by its own counter, so
  each queue sorts locally without the oracle;
* the event loop runs only while **every** queue is non-empty (NOP
  heartbeats guarantee this under light load): it pops the earliest head
  across queues, consulting the timeline oracle for concurrent heads, and
  applies it;
* FIFO per channel is validated with sequence numbers;
* oracle decisions are cached locally (they are irreversible);
* node programs wait until every queue head is ordered **after** the
  program's timestamp — unordered (transaction, program) pairs resolve
  transaction-first (section 4.1), so programs never miss committed
  writes; gatekeeper announces bound the wait.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from typing import Callable, List, Optional, Tuple

from ..core.ordering import EarliestScheduler, RefinableOrdering
from ..core.vclock import Ordering, VectorTimestamp
from ..errors import ClusterError
from ..graph.mvgraph import MultiVersionGraph, SnapshotView
from .messages import QueuedTransaction


class ShardStats:
    """Counters used by the scalability experiments (Figs 12, 13)."""

    def __init__(self) -> None:
        self.transactions_applied = 0
        self.nops_applied = 0
        self.programs_started = 0
        self.vertices_read = 0
        self.out_of_order_rejected = 0
        self.duplicates_discarded = 0
        self.pages_in = 0
        self.pages_out = 0
        # Transactions that arrived without a sender-assigned tiebreak
        # rank and were assigned one from this shard's local arrival
        # order.  Nonzero outside hand-built test rigs means a sender
        # forgot to rank, so cross-channel delivery skew can reorder
        # concurrent pairs — worth seeing in `repro stats`.
        self.local_tiebreaks = 0

    def reset(self) -> None:
        self.__init__()


class ShardServer:
    """One shard: a graph partition plus the ordering event loop."""

    def __init__(self, index: int, num_gatekeepers: int, oracle):
        self.index = index
        self.num_gatekeepers = num_gatekeepers
        self.ordering = RefinableOrdering(oracle)
        self.graph = MultiVersionGraph(cmp=self._read_compare)
        self.stats = ShardStats()
        self._queues: List[List[Tuple[Tuple[int, int], QueuedTransaction]]] = [
            [] for _ in range(num_gatekeepers)
        ]
        # Tournament over queue heads: a pop replaces one head, so only
        # that bracket path is re-compared (Fig 6 loop, log G per pop).
        self._scheduler = EarliestScheduler(self.ordering, num_gatekeepers)
        self._expected_seqno = [0] * num_gatekeepers
        # Fallback tiebreak rank for transactions whose sender assigned
        # none (hand-built rigs; every deployment sender ranks in send
        # order, which extends backing-store commit order — section 4.2).
        # Assignments are counted in ShardStats.local_tiebreaks.
        self._local_rank = 0
        self._epoch = 0
        # Position of the last non-NOP apply on this server instance;
        # (epoch, apply_seq) keys the shard.apply span so the referee
        # can reconstruct true apply order from a shuffled span stream
        # (recovered servers restart at 0 in a higher epoch, which keys
        # lexicographically after everything the old instance applied).
        self._apply_seq = 0
        # Optional repro.obs.Tracer: traced transactions emit
        # shard.enqueue / shard.apply spans as they move through.
        self.tracer = None
        # Demand paging (section 6.1): a loader that materializes an
        # evicted vertex's committed state from the backing store.
        self._pager: Optional[Callable[[str], Optional[dict]]] = None
        # Persistent apply observer: called as on_apply(shard_index, qtx)
        # for every non-NOP transaction applied, including those drained
        # by the epoch-barrier flush.  The history checker hangs here.
        self.on_apply: Optional[Callable[[int, QueuedTransaction], None]] = (
            None
        )

    @property
    def name(self) -> str:
        return f"shard{self.index}"

    @property
    def epoch(self) -> int:
        return self._epoch

    # -- ordering hooks -----------------------------------------------------

    def _read_compare(
        self, a: VectorTimestamp, b: VectorTimestamp
    ) -> Ordering:
        """Comparator used for snapshot visibility.

        Called as compare(write_ts, read_ts): when the pair is unordered
        the write is committed before the reader (section 4.1's
        "node programs after transactions" rule), so reads never miss a
        committed write.
        """
        return self.ordering.compare(a, b, prefer=Ordering.BEFORE)

    # -- queue management ----------------------------------------------

    def enqueue(self, gk_index: int, qtx: QueuedTransaction) -> None:
        """Accept a transaction (or NOP) from a gatekeeper channel."""
        if not 0 <= gk_index < self.num_gatekeepers:
            raise ClusterError(f"unknown gatekeeper {gk_index}")
        if qtx.seqno is not None:
            expected = self._expected_seqno[gk_index]
            if expected is None:
                # Resynchronizing after an epoch barrier: adopt the
                # first delivery's number as the new baseline.
                self._expected_seqno[gk_index] = qtx.seqno + 1
            elif qtx.seqno < expected:
                # Already delivered: a transport-level retransmission
                # duplicated the message.  Sequence numbers exist exactly
                # to make redelivery idempotent (section 4.2) — discard.
                self.stats.duplicates_discarded += 1
                return
            elif qtx.seqno > expected:
                # FIFO channels with sequence numbers (section 4.2): a
                # gap means the channel misbehaved.
                self.stats.out_of_order_rejected += 1
                raise ClusterError(
                    f"out-of-order delivery from gk{gk_index}: "
                    f"expected {expected}, got {qtx.seqno}"
                )
            else:
                self._expected_seqno[gk_index] += 1
        if qtx.tiebreak is None:
            # No sender-assigned rank: fall back to local arrival order
            # (equivalent to the sender's rank on uniform channels, but
            # vulnerable to cross-channel delivery skew — counted so it
            # is visible when it happens).
            qtx = replace(qtx, tiebreak=self._local_rank)
            self._local_rank += 1
            self.stats.local_tiebreaks += 1
        heapq.heappush(self._queues[gk_index], (qtx.queue_key, qtx))
        if self.tracer is not None and qtx.trace_id is not None:
            self.tracer.emit(
                qtx.trace_id, "shard.enqueue", node=self.name,
                ts=qtx.ts, gk=gk_index, seqno=qtx.seqno, shard=self.index,
            )

    def queue_depths(self) -> List[int]:
        return [len(q) for q in self._queues]

    def _head(self, gk_index: int) -> Optional[QueuedTransaction]:
        queue = self._queues[gk_index]
        return queue[0][1] if queue else None

    def _all_heads(self) -> Optional[List[QueuedTransaction]]:
        heads = []
        for i in range(self.num_gatekeepers):
            head = self._head(i)
            if head is None:
                return None
            heads.append(head)
        return heads

    # -- the event loop (Fig 6) ------------------------------------------

    def apply_available(
        self,
        stop_before: Optional[VectorTimestamp] = None,
        on_apply: Optional[Callable[[QueuedTransaction], None]] = None,
    ) -> int:
        """Apply queued transactions in refinable order.

        Runs while every gatekeeper queue is non-empty (the Fig 6 loop).
        With ``stop_before`` set, stops once the earliest head is ordered
        after that timestamp — the node-program wait of section 4.1.
        Returns the number of transactions (including NOPs) applied.
        """
        applied = 0
        while True:
            heads = self._all_heads()
            if heads is None:
                break
            earliest = self._scheduler.select(
                [(h.ts, h.tiebreak) for h in heads]
            )
            qtx = heads[earliest]
            if stop_before is not None:
                # Transaction-vs-program: unordered pairs commit the
                # transaction first, so the program observes it.
                if (
                    self.ordering.compare(
                        qtx.ts, stop_before, prefer=Ordering.BEFORE
                    )
                    is not Ordering.BEFORE
                ):
                    break
            heapq.heappop(self._queues[earliest])
            self._apply(qtx)
            applied += 1
            if on_apply is not None:
                on_apply(qtx)
        return applied

    def _apply(self, qtx: QueuedTransaction) -> None:
        if qtx.is_nop:
            self.stats.nops_applied += 1
            return
        for op in qtx.operations:
            if self._pager is not None:
                self._apply_with_paging(op, qtx.ts)
            else:
                op.apply_graph(self.graph, qtx.ts)
        self.stats.transactions_applied += 1
        self._apply_seq += 1
        if self.tracer is not None and qtx.trace_id is not None:
            self.tracer.emit(
                qtx.trace_id, "shard.apply", node=self.name,
                ts=qtx.ts, shard=self.index,
                apply_seq=self._apply_seq, epoch=self._epoch,
            )
        if self.on_apply is not None:
            self.on_apply(self.index, qtx)

    def _apply_with_paging(self, op, ts: VectorTimestamp) -> None:
        """Apply one op, paging its vertex in on demand.

        A paged-in image is the vertex's *committed* state, which may
        already include this very operation (it committed to the store
        before being forwarded here), so replays that find their effect
        already present are skipped rather than rejected.
        """
        from ..errors import NoSuchEdge, NoSuchVertex

        try:
            op.apply_graph(self.graph, ts)
            return
        except NoSuchVertex:
            (owner,) = op.touched()
            if not self.ensure_paged(owner):
                raise
        except (NoSuchEdge, ValueError):
            # The vertex is resident and already reflects this op (it
            # arrived inside an earlier page-in image).
            return
        try:
            op.apply_graph(self.graph, ts)
        except (NoSuchEdge, NoSuchVertex, ValueError):
            # Ditto, via the image just paged in.
            pass

    # -- node program support (section 4.1) -------------------------------

    def ready_for(self, prog_ts: VectorTimestamp) -> bool:
        """True when the shard may execute a program stamped ``prog_ts``:
        every queue is non-empty and every head is ordered after it."""
        heads = self._all_heads()
        if heads is None:
            return False
        return all(
            self.ordering.compare(h.ts, prog_ts, prefer=Ordering.BEFORE)
            is Ordering.AFTER
            for h in heads
        )

    def not_ready(self, prog_ts: VectorTimestamp) -> Optional[ClusterError]:
        """The named error a program stamped ``prog_ts`` fails with
        instead of reading a stale snapshot; None when the shard may
        execute it.  Whoever takes a program snapshot here asks first —
        nobody upstream vouches for the shard."""
        if self.ready_for(prog_ts):
            return None
        return ClusterError(
            f"{self.name} not ready for {prog_ts} despite heartbeats"
        )

    def advance_to(self, prog_ts: VectorTimestamp) -> bool:
        """Apply everything ordered before ``prog_ts``; True when ready."""
        self.apply_available(stop_before=prog_ts)
        return self.ready_for(prog_ts)

    def flush_all(self) -> int:
        """Apply every queued transaction, ignoring the all-queues-
        non-empty rule.

        Only valid at an epoch barrier (section 4.3): once the cluster
        manager has stopped the old epoch, no further old-epoch stamp
        can arrive, so the usual wait-for-every-queue rule is vacuous
        and pending work can drain in refinable order.
        """
        applied = 0
        while True:
            earliest = self._scheduler.select(
                [
                    (q[0][1].ts, q[0][1].tiebreak) if q else None
                    for q in self._queues
                ]
            )
            if earliest is None:
                break
            _, qtx = heapq.heappop(self._queues[earliest])
            self._apply(qtx)
            applied += 1
        return applied

    def snapshot(self, prog_ts: VectorTimestamp) -> SnapshotView:
        """The consistent view a program stamped ``prog_ts`` reads."""
        self.stats.programs_started += 1
        return self.graph.at(prog_ts, memo_stats=self.ordering.stats)

    # -- demand paging (section 6.1) --------------------------------------

    def set_pager(self, loader: Callable[[str], Optional[dict]]) -> None:
        """Enable demand paging.

        ``loader(handle)`` returns the vertex's committed image —
        ``{"properties": {...}, "edges": {handle: {"dst":..,
        "props":..}}}`` — or None when the vertex does not exist.
        """
        self._pager = loader

    def evict(self, handle: str) -> int:
        """Page a vertex out of memory (its durable copy remains in the
        backing store).  Returns versioned records released."""
        if self._pager is None:
            raise ClusterError("demand paging not enabled on this shard")
        released = self.graph.evict(handle)
        if released:
            self.stats.pages_out += 1
        return released

    def ensure_paged(self, handle: str) -> bool:
        """Page a vertex in if it was evicted; True if it is resident.

        The image is stamped with the *ancient* timestamp (ordered
        before everything), because its contents were all committed
        before now; per-version history is traded for memory, exactly
        as with recovery from the backing store (section 4.3).
        """
        if self._pager is None or self.graph.raw_vertex(handle) is not None:
            return self.graph.raw_vertex(handle) is not None
        image = self._pager(handle)
        if image is None:
            return False
        ancient = VectorTimestamp.ancient(self.num_gatekeepers)
        self.graph.create_vertex(handle, ancient)
        for key, value in image.get("properties", {}).items():
            self.graph.set_vertex_property(handle, key, value, ancient)
        for edge_handle, record in image.get("edges", {}).items():
            self.graph.create_edge(
                edge_handle, handle, record["dst"], ancient
            )
            for key, value in record.get("props", {}).items():
                self.graph.set_edge_property(
                    handle, edge_handle, key, value, ancient
                )
        self.stats.pages_in += 1
        return True

    # -- garbage collection (section 4.5) --------------------------------

    def collect_below(self, watermark: VectorTimestamp) -> int:
        return self.graph.collect_below(watermark)

    # -- failover (section 4.3) ------------------------------------------

    def advance_epoch(self, new_epoch: int) -> None:
        """Join a new configuration epoch (cluster-manager barrier)."""
        if new_epoch <= self._epoch:
            raise ClusterError(
                f"epoch must advance: {new_epoch} <= {self._epoch}"
            )
        self._epoch = new_epoch
        # Apply whatever committed work is still queued (the barrier
        # guarantees no further old-epoch stamps), then resynchronize the
        # FIFO sequence numbers for the new epoch's channels.
        self.flush_all()
        self._queues = [[] for _ in range(self.num_gatekeepers)]
        self._expected_seqno = [None] * self.num_gatekeepers
