"""Gatekeeper servers: proactive timestamping and commit (sections 3.3, 4.2).

A gatekeeper does three things:

1. **Stamp**: increment its own component of a vector clock per client
   request and attach the snapshot to the transaction.
2. **Announce**: every ``tau`` seconds broadcast its vector to peers, which
   fold it in componentwise; announces create the happens-before edges
   that let most transaction pairs order proactively.
3. **Commit**: execute the client's buffered writes on the backing store,
   enforcing the timestamp-monotonicity rule of section 4.2 — if another
   gatekeeper already committed a later-stamped write to any vertex this
   transaction touches, and our stamp does not dominate it, the commit
   aborts and the client retries (picking up a fresh, higher stamp).

The gatekeeper is transport-agnostic: the database layer runs an
announce round every ``announce_every`` commits, through the simulated
network on the twin, synchronously on a coordinator.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..errors import TransactionAborted
from ..store.kvstore import StoreTransaction, TransactionalStore
from .vclock import Ordering, VectorClock, VectorTimestamp

_LAST_UPDATE_PREFIX = "__lastup__:"


class DeadlineStamper:
    """Issues Tiga-style future deadlines from a synchronized clock.

    In a geo deployment every stamp a region issues carries a deadline
    ``now + horizon`` where ``horizon`` is the worst-case one-way latency
    from this region to any other: by the time the deadline arrives, the
    stamped message has reached every region.  Two invariants make the
    deadline order a safe refinement target:

    * **Lamport monotonicity** — deadlines strictly increase along every
      happens-before chain.  Locally each stamper's deadlines strictly
      increase; remotely, announce messages piggyback the announcer's
      latest deadline, which the receiver folds in via :meth:`observe`
      before stamping anything causally after it.
    * **Commit-chain consistency** — a commit's deadline exceeds the
      deadline of every touched vertex's previous update (the ``floor``
      argument, read under OCC from the last-update stamps), so deadline
      order never contradicts same-vertex store commit order.

    One stamper serves one region; it is owned by the deployment and
    survives gatekeeper crash/recovery, so a recovered gatekeeper cannot
    reissue stale deadlines.
    """

    # Minimal separation between consecutive deadlines from one stamper
    # (and above any floor).  Far below the clock-skew bound, so forced
    # separations never fabricate a fast-path decision on their own.
    EPSILON = 1e-9

    def __init__(self, clock_fn: Callable[[], float], horizon: float):
        if horizon < 0:
            raise ValueError("deadline horizon must be non-negative")
        self._clock_fn = clock_fn
        self.horizon = horizon
        self._last = float("-inf")
        self.issued = 0

    @property
    def last(self) -> float:
        """Latest deadline issued or observed (announce piggyback)."""
        return self._last

    def observe(self, deadline: Optional[float]) -> None:
        """Fold in a deadline learned from a peer (Lamport receive)."""
        if deadline is not None and deadline > self._last:
            self._last = deadline

    def next_deadline(self, floor: Optional[float] = None) -> float:
        """A fresh deadline above the clock horizon, the last deadline
        seen, and ``floor`` (the touched vertices' previous deadlines)."""
        deadline = self._clock_fn() + self.horizon
        if deadline <= self._last:
            deadline = self._last + self.EPSILON
        if floor is not None and deadline <= floor:
            deadline = floor + self.EPSILON
        self._last = deadline
        self.issued += 1
        return deadline


class GatekeeperStats:
    """Counters for the coordination-overhead experiment (Fig 14)."""

    def __init__(self) -> None:
        self.timestamps_issued = 0
        self.announces_sent = 0
        self.announces_received = 0
        self.nops_sent = 0
        self.commits = 0
        self.aborts = 0


class Gatekeeper:
    """One member of the timeline coordinator's gatekeeper bank."""

    def __init__(
        self,
        index: int,
        num_gatekeepers: int,
        store: Optional[TransactionalStore] = None,
        epoch: int = 0,
    ):
        self.index = index
        self.clock = VectorClock(num_gatekeepers, index, epoch)
        self.store = store
        self.stats = GatekeeperStats()
        # Optional repro.obs.Tracer: traced commits emit
        # gatekeeper.stamp / store.commit / gatekeeper.abort spans.
        self.tracer = None
        # Optional DeadlineStamper (geo deployments): when attached,
        # every stamp this gatekeeper issues carries a future deadline.
        self.deadline_stamper: Optional[DeadlineStamper] = None

    def _emit(self, trace_id, kind: str, **attrs) -> None:
        if self.tracer is not None and trace_id is not None:
            self.tracer.emit(trace_id, kind, node=self.name, **attrs)

    @property
    def name(self) -> str:
        return f"gk{self.index}"

    # -- timestamping ------------------------------------------------------

    def issue_timestamp(
        self, deadline_floor: Optional[float] = None
    ) -> VectorTimestamp:
        """Stamp one transaction or node program.

        ``deadline_floor`` (geo only) is the highest deadline among the
        previous updates of the vertices this stamp will commit to; the
        fresh deadline must clear it so deadline order agrees with
        same-vertex commit order.
        """
        self.stats.timestamps_issued += 1
        if self.deadline_stamper is not None:
            return self.clock.tick(
                self.deadline_stamper.next_deadline(deadline_floor)
            )
        return self.clock.tick()

    def current_watermark(self) -> VectorTimestamp:
        """A non-unique snapshot of the clock (GC watermarks only)."""
        return self.clock.peek()

    # -- announce protocol ---------------------------------------------

    def make_announce(self):
        """Snapshot to broadcast to the other gatekeepers."""
        self.stats.announces_sent += 1
        return self.clock.announce()

    def receive_announce(self, vector: Iterable[int]) -> None:
        """Fold a peer's announce into the local clock."""
        self.stats.announces_received += 1
        self.clock.observe(vector)

    # -- NOP heartbeats (section 4.2) ------------------------------------

    def follow(self, link: Optional[VectorTimestamp]) -> None:
        """Fold ``link``, the previous link of a heartbeat chain, into
        the clock, so the next stamp dominates it.  Not folded are this
        gatekeeper's own stamp (its counter already orders the two) and
        a stamp from another epoch, whose counters restarted: folding
        them would fake happens-before edges."""
        if (
            link is not None
            and link.issuer != self.index
            and link.epoch == self.clock.epoch
        ):
            self.clock.observe(link.clocks)

    def make_nop(
        self, after: Optional[VectorTimestamp] = None
    ) -> VectorTimestamp:
        """A NOP transaction keeping shard queues non-empty under light
        load, bounding node-program delay.

        Heartbeats form one chain: ``after`` is the chain's previous
        link, folded in (:meth:`follow`) before the tick, so this NOP
        dominates it and no shard asks the oracle about the pair.
        """
        self.follow(after)
        self.stats.nops_sent += 1
        if self.deadline_stamper is not None:
            # NOPs carry deadlines too: every geo stamp lives in the one
            # total deadline order, or mixed oracle chains through NOPs
            # could contradict fast-path decisions.
            return self.clock.tick(self.deadline_stamper.next_deadline())
        return self.clock.tick()

    # -- commit path (section 4.2) --------------------------------------

    def commit(
        self,
        apply_writes: Callable[[StoreTransaction], None],
        touched_vertices: Iterable[str],
        trace_id: Optional[int] = None,
    ) -> VectorTimestamp:
        """Begin a store transaction, let ``apply_writes(tx)`` write the
        buffered operations into it (validity errors raise there), and
        commit it through :meth:`commit_prepared`."""
        if self.store is None:
            raise RuntimeError("gatekeeper has no backing store attached")
        tx = self.store.begin()
        try:
            apply_writes(tx)
        except Exception:
            self.stats.aborts += 1
            tx.abort()
            raise
        return self.commit_prepared(tx, touched_vertices, trace_id)

    def commit_prepared(
        self,
        store_tx: StoreTransaction,
        touched_vertices: Iterable[str],
        trace_id: Optional[int] = None,
    ) -> VectorTimestamp:
        """Commit an already-populated store transaction.

        The interactive client path: the client applied its buffered
        operations to ``store_tx`` as it built the transaction (getting
        read-your-writes and early validity errors); the gatekeeper now
        stamps it, runs the last-update monotonicity check *through the
        same transaction* (so the check is atomic with the commit), writes
        the new last-update stamps, and commits.
        """
        touched = list(touched_vertices)
        ts = None
        try:
            # Read the last-update stamps before stamping: the stamp's
            # deadline (geo mode) must clear the previous updates of every
            # touched vertex, and these OCC reads make concurrent
            # committers to a shared vertex conflict at commit time.
            lasts = [
                (vertex, store_tx.get(_LAST_UPDATE_PREFIX + vertex))
                for vertex in touched
            ]
            ts = self.issue_timestamp(_deadline_floor(lasts))
            self._emit(trace_id, "gatekeeper.stamp", ts=ts, gk=self.index)
            for vertex, last in lasts:
                if last is not None and ts.compare(last) is Ordering.BEFORE:
                    raise TransactionAborted(
                        f"timestamp inversion on {vertex!r}"
                    )
            for vertex in touched:
                store_tx.put(_LAST_UPDATE_PREFIX + vertex, ts)
            version = store_tx.commit()
        except Exception:
            self.stats.aborts += 1
            if store_tx.is_open:
                store_tx.abort()
            if ts is not None:
                self._emit(
                    trace_id, "gatekeeper.abort", ts=ts, gk=self.index
                )
            raise
        self.stats.commits += 1
        self._emit(
            trace_id, "store.commit", ts=ts, gk=self.index,
            commit_seq=version,
        )
        return ts

    # -- failover (section 4.3) -----------------------------------------

    def advance_epoch(self, new_epoch: int) -> None:
        """Enter a new configuration epoch (clock restarts at zero)."""
        self.clock.advance_epoch(new_epoch)


def _deadline_floor(lasts) -> Optional[float]:
    """Highest deadline among a commit's touched last-update stamps."""
    floor = None
    for _, last in lasts:
        if last is None:
            continue
        deadline = getattr(last, "deadline", None)
        if deadline is not None and (floor is None or deadline > floor):
            floor = deadline
    return floor


def sync_announce_all(gatekeepers) -> None:
    """Synchronously exchange announces among all gatekeepers.

    A coordinator's announce round: after this call every
    gatekeeper's vector dominates every timestamp issued before the call,
    so all earlier stamps order proactively against all later ones.
    """
    snapshots = [(gk.index, gk.make_announce()) for gk in gatekeepers]
    for gk in gatekeepers:
        for index, vector in snapshots:
            if index != gk.index:
                gk.receive_announce(vector)
