"""The Weaver database: gatekeepers + shards + oracle + backing store.

The paper's client-side write/read protocol (section 4.2) does not
depend on where the shards live, so it is written once, split where
deployments differ — whether anything may wait:

* :class:`WritePath` — the clock-free part: place new vertices →
  gatekeeper stamp and backing-store commit → per-(gatekeeper, shard)
  FIFO enqueue with sequence numbers and one global send rank; one
  announce round every ``announce_every`` commits; every read's
  decision (cache, stamp choice, watermarks) and readiness rule
  (one heartbeat round per fresh stamp: NOPs so every queue is
  non-empty → a one-way ``advance_to``, which the shard checks for
  itself); the two ends of a shard-resident program; and the oracle +
  store tail every GC pass ends with.  It only ever calls
  ``transport.send``, so every deployment inherits it.
* :class:`Coordinator` (a ``WritePath``) — everything that blocks:
  ``begin_transaction``, synchronous announce rounds, drain pacing by
  commit count, ``run_program``'s execution, drain, checkpoint and the
  GC fan-out.  It reaches shards only through the
  :class:`~repro.cluster.transport.Transport` contract (``send`` for
  enqueues, heartbeats and ``advance_to``; one ``request_all`` fan-out
  for ``drain`` / ``collect_below`` / ``advance_epoch``), and every
  shard answers through the same
  :class:`~repro.cluster.worker.ShardEndpoint`.
* :class:`Weaver` (this module) — the deployment in one process: a
  ``LocalTransport`` over endpoints wrapping its live ``ShardServer``
  list, and the drills that need in-process shards (migration,
  eviction, crashes), each a call on a shard.
* :class:`~repro.cluster.process.ProcessWeaver` — the same coordinator
  over a ``ProcessTransport`` to forked shard workers.

On every deployment an announce round every ``announce_every`` commits
plays the role of the τ timer, and NOP heartbeats ride each fresh read
stamp instead of the paper's 10 µs timer: a read at or before the last
round's stamp sends nothing.  The discrete-event
:class:`~repro.sim.deployment.SimulatedWeaver` is a ``WritePath`` over
a ``SimTransport``: the same commit, announce cadence, channel
stamping, read decision, readiness rule and shard endpoint; only how
its announce rounds and NOPs travel is its own.
"""

from __future__ import annotations

import functools
import itertools
from types import SimpleNamespace
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple, Union

from ..cluster import wire
from ..cluster.builder import ClusterParts, build_cluster
from ..cluster.messages import ProgramStart, QueuedTransaction, pack_level
from ..cluster.shard import ShardServer
from ..cluster.transport import LocalTransport, Transport
from ..cluster.worker import ShardEndpoint
from ..core.gatekeeper import Gatekeeper, sync_announce_all
from ..core.vclock import Ordering, VectorTimestamp
from ..errors import ClusterError, NoSuchVertex, ProgramError
from ..graph import HashPartitioner
from ..programs.caching import CacheKey, ChangeTracker, ProgramCache
from ..programs.framework import NodeProgram, ProgramResult
from ..programs.library import PROGRAM_REGISTRY
from ..programs.routing import ShardSnapshotResolver
from ..programs.state import WatermarkRegistry
from .config import WeaverConfig
from .operations import graph_state_from_store, vertex_image
from .transactions import Transaction

StartSpec = Union[str, Iterable[Tuple[str, Any]]]

# Commits between background queue drains on a blocking coordinator;
# bounds shard queue memory in long write-only stretches.
DRAIN_EVERY = 256


class WritePath:
    """The clock-free write path of section 4.2: gatekeeper stamp →
    backing-store commit → per-(gatekeeper, shard) FIFO enqueue.

    Nothing here blocks or waits for a reply, so the blocking
    :class:`Coordinator` and the discrete-event
    :class:`~repro.sim.deployment.SimulatedWeaver` both inherit it; each
    says only how an announce round travels (:meth:`_announce`).
    """

    def __init__(self, parts: ClusterParts, transport: Transport):
        # One deployment-neutral assembly (cluster/builder.py); the
        # parts lists are the live ones (recovery replaces elements in
        # place, and the registered collectors follow).
        self.parts = parts
        self.config = cfg = parts.config
        self.store = parts.store
        self.mapping = parts.mapping
        self.oracle = parts.oracle
        self.gatekeepers: List[Gatekeeper] = parts.gatekeepers
        self.manager = parts.manager
        self.executor = parts.executor
        # Observability: one registry + tracer per deployment.
        self.metrics = parts.metrics
        self.tracer = parts.tracer
        self.transport = transport
        # Transport addresses, by index (a replacement server keeps its
        # predecessor's name).
        self._all_shards = list(range(cfg.num_shards))
        self._shard_names = [self.shard_name(i) for i in self._all_shards]
        self._gk_names = [gk.name for gk in self.gatekeepers]
        self._handle_counter = itertools.count()
        self._query_counter = itertools.count(1)
        self._next_gk = itertools.count()
        # Sender-assigned tiebreak ranks: one global send order across
        # all channels, which extends backing-store commit order because
        # forwarding happens synchronously at commit.
        self._send_rank = itertools.count()
        self._channel_seqno: Dict[Tuple[int, int], int] = {}
        self._placement: Dict[str, int] = {}
        self._hash_partitioner = HashPartitioner(cfg.num_shards)
        # The read decision's state (sections 4.1 and 4.6): what every
        # commit attempt writes, which the read-stamp rule and the
        # program cache (off in the paper's evaluation) both read.
        self.changes = ChangeTracker()
        self.program_cache: Optional[ProgramCache] = None
        if cfg.enable_program_cache:
            self.program_cache = cache = ProgramCache(self.changes)
            self.metrics.absorb("program.cache", lambda: cache)
        self.watermarks = WatermarkRegistry(cmp=lambda a, b: a.compare(b))
        self.programs_run = 0
        # Commits between announce rounds (the twin's τ controller may
        # move it), and the commits so far.
        self.announce_every = cfg.announce_every
        self._commits = 0
        # The last fresh stamp and the commit attempts it was chosen
        # after (None once retired); the attempts the last announce
        # round covers.
        self._read_stamp: Optional[VectorTimestamp] = None
        self._read_attempt = self._announced_attempt = 0
        # The timestamp every live shard was last advanced to, while
        # that round's heartbeats are still queued behind it; whatever
        # moves it retires the read stamp.
        self._advanced_to: Optional[VectorTimestamp] = None

    @staticmethod
    def shard_name(index: int) -> str:
        return f"shard{index}"

    # -- identifiers ------------------------------------------------------

    def new_handle(self, prefix: str = "v") -> str:
        return f"{prefix}{next(self._handle_counter)}"

    def _pick_gatekeeper(self) -> int:
        return next(self._next_gk) % len(self.gatekeepers)

    # -- transactions (section 4.2) ----------------------------------------

    # Transaction.commit() lands here.
    def _commit_transaction(self, tx: Transaction) -> VectorTimestamp:
        # Before the gatekeeper stamps, whatever befalls the attempt (a
        # forward may raise after the store committed): no later read of
        # what it writes runs at an earlier stamp or is served from the
        # cache.  An abort costs one spare stamp, the safe side.
        self.changes.bump_all(tx.touched_vertices)
        gk = self.gatekeepers[tx.gatekeeper_index]
        placed = self._place_new_vertices(tx)
        ts = gk.commit_prepared(
            tx.store_tx, tx.touched_vertices, trace_id=tx.trace_id
        )
        self._forward_to_shards(gk.index, ts, tx)
        self._on_commit(tx, placed)
        # Commit counts stand in for the τ timer.
        self._commits += 1
        if self._commits % self.announce_every == 0:
            self._announce()
        return ts

    def _on_commit(self, tx: Transaction, placed: Dict[str, int]) -> None:
        """Deployment bookkeeping for a transaction that is durable and
        forwarded; ``placed`` maps the vertices it created to shards."""

    def _place_new_vertices(self, tx: Transaction) -> Dict[str, int]:
        """Install shard assignments for created vertices, atomically with
        the transaction itself (they share the store transaction)."""
        hashed = self.config.partitioner == "hash"
        placed: Dict[str, int] = {}
        for vertex in tx.created_vertices:
            # None takes the mapping's round-robin cursor.
            shard = self._hash_partitioner.assign(vertex) if hashed else None
            placed[vertex] = self.mapping.assign(
                vertex, tx=tx.store_tx, shard=shard
            )
        self._placement.update(placed)
        return placed

    def _shard_of(self, vertex: str) -> Optional[int]:
        shard = self._placement.get(vertex)
        if shard is None:
            shard = self.mapping.lookup(vertex)
            if shard is not None:
                self._placement[vertex] = shard
        return shard

    def _forward_to_shards(
        self, gk_index: int, ts: VectorTimestamp, tx: Transaction
    ) -> None:
        """Group the committed operations by owning shard and enqueue
        (FIFO sequence numbers per gatekeeper-shard channel)."""
        per_shard: Dict[int, List] = {}
        for op in tx.operations:
            (owner,) = op.touched()
            shard = self._shard_of(owner)
            if shard is None:
                raise NoSuchVertex(owner)
            per_shard.setdefault(shard, []).append(op)
        for shard_index, ops_list in per_shard.items():
            self._enqueue(
                gk_index,
                shard_index,
                QueuedTransaction(
                    ts, tuple(ops_list), trace_id=tx.trace_id
                ),
            )

    def _enqueue(
        self, gk_index: int, shard_index: int, qtx: QueuedTransaction
    ) -> None:
        """Stamp the channel seqno and send-order rank, then send; a
        batching transport flushes it before the next request on that
        channel, preserving FIFO."""
        channel = (gk_index, shard_index)
        seqno = self._channel_seqno.get(channel, 0)
        self._channel_seqno[channel] = seqno + 1
        # Built directly: dataclasses.replace costs several times the
        # constructor, and every heartbeat passes through here.
        stamped = QueuedTransaction(
            qtx.ts, qtx.operations, seqno, next(self._send_rank),
            qtx.trace_id,
        )
        self.transport.send(
            self._gk_names[gk_index],
            self._shard_names[shard_index],
            "enqueue",
            (gk_index, stamped),
        )

    # -- shard-resident node programs (section 4.1) ------------------------

    @staticmethod
    def _wire_program(program: NodeProgram) -> Tuple[str, Optional[dict]]:
        """``program`` as it crosses the wire: ``(name, init)``, its
        registered name and the instance's own ``vars()`` (None when
        there are none), from which a shard rebuilds it as
        ``PROGRAM_REGISTRY[name](**init)``.  Checked here, once, at
        submit — a class the registry does not hold under that name, an
        instance its ``vars()`` do not rebuild, or ``vars()`` the wire
        refuses all fail by name before anything is sent."""
        name, init = program.name, dict(vars(program)) or None
        cls = PROGRAM_REGISTRY.get(name)
        if type(program) is not cls:
            raise ProgramError(
                f"{type(program).__name__} is not registered as {name!r}: "
                "the shards cannot construct it"
            )
        if init is not None:
            try:
                rebuilt = vars(cls(**init))
                wire.encode(init)
            except Exception as exc:  # noqa: BLE001 - any refusal, by name
                raise ProgramError(
                    f"program {name!r} cannot be shipped as its vars(): "
                    f"{exc}"
                ) from exc
            if rebuilt != init:
                raise ProgramError(
                    f"vars() of program {name!r} do not rebuild it: "
                    f"{rebuilt!r} != {init!r}"
                )
        return name, init

    def _program_start(
        self,
        program: Tuple[str, Optional[dict]],
        frontier: List[Tuple[str, Any]],
        ts: VectorTimestamp,
        query_id: int,
        trace_id: Optional[int],
        live: List[int],
    ) -> Tuple[int, ProgramStart]:
        """The request that ships ``program`` (:meth:`_wire_program`'s
        pair) to the data, and the shard that coordinates it: the start
        vertex's owner if it is in ``live``, else the first live
        shard."""
        # Initial frontier entry i carries the one-level order key
        # pack(i): children append their hop index, so sorting a round's
        # entries by key reproduces the executor's append order exactly.
        keyed = tuple(
            (handle, entry_params, pack_level(i, "start vertices"))
            for i, (handle, entry_params) in enumerate(frontier)
        )
        # No start vertex: the first live shard replies with nothing.
        coordinator = self._shard_of(frontier[0][0]) if frontier else None
        if coordinator is None or coordinator not in live:
            coordinator = live[0]
        name, init = program
        return coordinator, ProgramStart(
            ts, query_id, name, keyed, trace_id=trace_id,
            max_visits=self.executor._max_visits, init=init,
        )

    @staticmethod
    def _program_result(payload: dict) -> ProgramResult:
        """The coordinating shard's reply as the caller's result: its
        payload is a program context by field name, the read set sorted
        for the wire; a failed program raises by the shard's text."""
        if payload.get("error") is not None:
            raise ProgramError(payload["error"])
        payload["read_set"] = set(payload["read_set"])
        return ProgramResult(SimpleNamespace(**payload))

    # -- the read decision (sections 4.1 and 4.6) --------------------------

    @staticmethod
    def _frontier(start: StartSpec, params: Any) -> List[Tuple[str, Any]]:
        """``run_program``'s ``start`` — a handle, or (handle, params)
        pairs — as (handle, params) pairs."""
        return [(start, params)] if isinstance(start, str) else list(start)

    def _lookup_program(
        self, program: NodeProgram, frontier: List[Tuple[str, Any]],
        at: Optional[VectorTimestamp], use_cache: bool,
        cache_key: Optional[Hashable],
    ) -> Tuple[Optional[CacheKey], Optional[ProgramResult]]:
        """A read's cache key — the program, every start handle,
        ``cache_key`` or every start's params, and ``at``'s stamp — and
        a valid cached result or None; ``(None, None)`` uncached."""
        cache = self.program_cache
        if not use_cache or cache is None:
            return None, None
        tail = cache_key if cache_key is not None else repr(
            [entry[1] for entry in frontier]
        )
        key = ProgramCache.key(
            program.name, vars(program), tuple(e[0] for e in frontier),
            tail if at is None else (tail, at.id),
        )
        return key, cache.get(key)

    def _stamp_program(
        self, program: NodeProgram, frontier: List[Tuple[str, Any]],
        at: Optional[VectorTimestamp], cached: bool, gk: Gatekeeper,
        trace_id: int, query_id: int,
    ) -> VectorTimestamp:
        """The stamp a read runs at — ``at``, the read stamp when
        :meth:`_reuses_read_stamp` says so, or a fresh one from ``gk`` —
        made ready for (:meth:`_make_shards_ready`) and held in the GC
        watermarks.  A reuse past a commit attempt first runs the
        announce round a fresh stamp would have begun with, unless one
        covered that attempt: ordering cost, not correctness."""
        reused = {}
        if at is not None:
            ts = self._make_shards_ready(at)
        elif self._reuses_read_stamp(program, frontier, cached):
            attempts = self.changes.attempts
            if attempts != self._read_attempt:
                self.executor.stats.readiness_reuses_across_commits += 1
                if attempts != self._announced_attempt:
                    self._announce()
            ts = self._make_shards_ready(self._read_stamp)
            reused = {"reused": True}
        else:
            attempt = self.changes.attempts
            ts = self._make_shards_ready(None, gk)
            self._read_stamp, self._read_attempt = ts, attempt
        self.watermarks.start(query_id, ts)
        self.tracer.emit(
            trace_id, "program.stamp", node=f"gk{ts.issuer}",
            ts=ts, query_id=query_id, **reused,
        )
        return ts

    def _reuses_read_stamp(
        self, program: NodeProgram, frontier: List[Tuple[str, Any]],
        cached: bool,
    ) -> bool:
        """Whether a current read runs at the read stamp: (i) the
        deployment has not retired it — a coordinator does whenever the
        readiness mark moves, the twin at every GC tick and recovery —
        and (ii) no commit attempt since it was chosen wrote what the
        program may read: none at all, or, for a ``reads_only_start``
        program outside the cache, none that wrote a start vertex (what
        it reads is then current, so it is linearizable anywhere in its
        interval: section 4.6's validity argument)."""
        if self._read_stamp is None:
            return False
        since, changes = self._read_attempt, self.changes
        return changes.attempts == since or (
            program.reads_only_start and not cached
            and changes.unchanged_since([e[0] for e in frontier], since)
        )

    def _finish_program(
        self, query_id: int, trace_id: int, key: Optional[CacheKey],
        result: ProgramResult, attempt: Optional[int],
    ) -> ProgramResult:
        """Close a read: ``attempt`` is the commit attempt count its
        stamp was chosen at (the cached result is valid from there; on
        the twin commits land before the reply), None for a cache hit,
        which is counted and traced like any run."""
        if attempt is None:
            flags = {"cache_hit": True}
        else:
            flags = {}
            self.watermarks.finish(query_id)
            if key is not None:
                self.program_cache.put(key, result, result.read_set, attempt)
        self.programs_run += 1
        self.tracer.emit(
            trace_id, "program.complete", node="client", query_id=query_id,
            **flags,
        )
        return result

    def _make_shards_ready(
        self, ts: Optional[VectorTimestamp],
        stamper: Optional[Gatekeeper] = None,
    ) -> VectorTimestamp:
        """Send every live shard what makes it ready for ``ts`` — or,
        with ``ts`` None, for a stamp ``stamper`` issues inside the
        round — ask nothing, and return the stamp (sections 4.1-4.2:
        the program waits at the shard).  One heartbeat round: NOPs so
        every queue is non-empty with a NOP that dominates ``ts``
        (:meth:`_send_nops`), then a one-way ``advance_to``, up to
        which the shard applies; whoever snapshots at the shard verifies
        ``ready_for(ts)`` there and fails by name.  A batching transport
        carries this inside the next request frame on each channel; the
        caller flushes the others.

        Fast path: at or before the mark the shards were last advanced
        to (a drain, an epoch reset or a recovery forgets it), nothing to
        send.  A round moves the mark and retires the read stamp, so a
        reused one is always the mark and lands here.
        """
        stats = self.executor.stats
        mark = self._advanced_to
        if ts is not None and mark is not None and ts.compare(mark) in (
            Ordering.BEFORE, Ordering.EQUAL
        ):
            stats.readiness_fastpath_hits += 1
            return ts
        stats.readiness_storms += 1
        stamped = self._send_nops(stamper)
        if ts is None:
            ts = stamped
        names = self._shard_names
        for shard_index in self._live_shards():
            self.transport.send(
                "client", names[shard_index], "advance_to", ts
            )
        self._advanced_to, self._read_stamp = ts, None
        return ts

    def _live_shards(self) -> List[int]:
        """Indices of the shards that can be reached right now: all of
        them, unless the deployment can lose one."""
        return self._all_shards

    def _send_nops(
        self, stamper: Optional[Gatekeeper] = None
    ) -> Optional[VectorTimestamp]:
        """One NOP from every gatekeeper to every shard (section 4.2's
        heartbeat, issued per fresh stamp instead of on a 10 µs timer;
        the twin overrides how they travel).

        A single announce round runs first; after it, each gatekeeper's
        NOP is made after the previous one (:meth:`Gatekeeper.make_nop`),
        so the NOPs form a vector-clock chain, not a concurrent set, and
        never burden the oracle — G-1 point-to-point folds instead of G
        full announce rounds (O(G²) messages each).

        With ``stamper``, that gatekeeper stamps a program between the
        leading announce and the first NOP, the chain starts from the
        stamp, and the stamp is returned: it dominates every write
        stamped before the call and every NOP dominates it, so no shard
        meets a transaction or heartbeat it must ask the oracle about.
        """
        self._announce()
        previous = stamp = (
            stamper.issue_timestamp() if stamper is not None else None
        )
        live = self._live_shards()
        for gk in self.gatekeepers:
            previous = gk.make_nop(after=previous)
            for shard_index in live:
                self._enqueue(
                    gk.index, shard_index, QueuedTransaction(previous)
                )
        # Announce the final NOP too, so every later stamp dominates it.
        self._announce()
        return stamp

    def _announce(self) -> None:
        """One announce round from every gatekeeper to every peer,
        covering every commit attempted so far; each deployment says how
        it travels."""
        raise NotImplementedError

    # -- garbage collection (section 4.5) -----------------------------------

    def _collect_oracle_and_store(
        self, watermark: VectorTimestamp
    ) -> Tuple[int, int]:
        """What every GC pass ends with: (oracle events, store records)
        reclaimed.  Store compaction uses the store's own commit
        counter, not the vector watermark: every version below the
        oldest open store snapshot is superseded for all future readers."""
        events = self.oracle.collect_below(watermark)
        records = self.store.collect_below(self.store.safe_compact_version())
        return events, records


class Coordinator(WritePath):
    """The blocking client-side protocol: the write path and read
    decision plus everything that waits — synchronous announces,
    drain pacing, node programs' execution, drain, checkpoint and the
    GC fan-out.  There is no time axis: spans are
    stamped with their emission sequence number (still a total order).

    Subclasses choose the transport and own whatever depends on where
    the shards live (:meth:`_live_shards`, :meth:`_ship`,
    :meth:`_execute`); nothing here does.
    """

    def __init__(self, parts: ClusterParts, transport: Transport):
        super().__init__(parts, transport)
        self._commits_since_drain = 0

    # -- shards, by name ------------------------------------------------

    def _request_all_shards(self, kind: str, payload: Any) -> List[Any]:
        """One fan-out request to every live shard; replies in
        :meth:`_live_shards` order."""
        names = self._shard_names
        return self.transport.request_all(
            "client",
            [(names[i], kind, payload) for i in self._live_shards()],
        )

    # -- transactions (section 4.2) ----------------------------------------

    def begin_transaction(
        self, gatekeeper: Optional[int] = None
    ) -> Transaction:
        """Open a read-write transaction routed through one gatekeeper."""
        index = (
            gatekeeper if gatekeeper is not None else self._pick_gatekeeper()
        )
        if not 0 <= index < len(self.gatekeepers):
            raise ClusterError(f"no gatekeeper {index}")
        tx = Transaction(self, index)
        tx.trace_id = self.tracer.next_trace_id()
        self.tracer.emit(
            tx.trace_id, "client.submit", node="client", gk=index
        )
        return tx

    def _commit_transaction(self, tx: Transaction) -> VectorTimestamp:
        # Commit counts stand in for the apply loop.
        ts = super()._commit_transaction(tx)
        self._commits_since_drain += 1
        if self._commits_since_drain >= DRAIN_EVERY:
            self.drain()
        return ts

    def _reset_channels(self) -> None:
        # An epoch barrier cleared every shard queue and its expected
        # sequence numbers; restart the sender side to match.  A shard
        # reloaded from the store may hold writes no counter saw applied,
        # so no cached result taken before the barrier is served.
        self._channel_seqno.clear()
        self._advanced_to = self._read_stamp = None
        if self.program_cache is not None:
            self.program_cache.clear()

    # -- queue pumping -----------------------------------------------------

    def _announce(self) -> None:
        """One synchronous announce round."""
        sync_announce_all(self.gatekeepers)
        self._announced_attempt = self.changes.attempts

    def drain(self) -> int:
        """Announce, heartbeat, and apply everything applicable on every
        shard (one fan-out)."""
        self._send_nops()
        self._commits_since_drain = 0
        self._advanced_to = self._read_stamp = None
        return sum(self._request_all_shards("drain", None))

    def checkpoint(self) -> VectorTimestamp:
        """A timestamp usable for stable historical queries.

        The returned stamp dominates every committed write, and the
        announce round after issuing it guarantees every *later* stamp
        dominates it — so a query ``at=checkpoint`` always sees exactly
        the writes committed before the call, no matter when it runs
        (section 3.1's multi-version historical reads).
        """
        self._announce()
        ts = self.gatekeepers[self._pick_gatekeeper()].issue_timestamp()
        self._announce()
        return ts

    # -- node programs (sections 4.1 and 4.6) ------------------------------

    def run_program(
        self,
        program: NodeProgram,
        start: StartSpec,
        params: Any = None,
        at: Optional[VectorTimestamp] = None,
        use_cache: bool = False,
        cache_key: Optional[Hashable] = None,
    ) -> ProgramResult:
        """Execute a node program on a consistent snapshot.

        ``start`` is a vertex handle or an iterable of (handle, params)
        pairs.  ``at`` runs a historical query at an earlier timestamp.
        With ``use_cache`` (requires ``enable_program_cache``), a valid
        memoized result is returned without stamping or sending
        anything (:meth:`_lookup_program`).
        """
        shipped = self._ship(program)
        frontier = self._frontier(start, params)
        query_id = next(self._query_counter)
        trace_id = self.tracer.next_trace_id()
        self.tracer.emit(
            trace_id, "program.submit", node="client",
            query_id=query_id, program=program.name,
        )
        key, result = self._lookup_program(
            program, frontier, at, use_cache, cache_key
        )
        attempt = None
        if result is None:
            # A miss moves the round robin, fresh stamp or reused, so
            # the next commit lands on the gatekeeper it always did.
            gk = self.gatekeepers[self._pick_gatekeeper()]
            ts = self._stamp_program(
                program, frontier, at, key is not None, gk, trace_id,
                query_id,
            )
            attempt = self.changes.attempts
            try:
                result = self._execute(
                    shipped, frontier, ts, query_id, trace_id
                )
            except BaseException:
                self.watermarks.finish(query_id)
                raise
        return self._finish_program(query_id, trace_id, key, result, attempt)

    def _ship(self, program: NodeProgram) -> Any:
        """``program`` as :meth:`_execute` takes it; a deployment whose
        shards rebuild it refuses here, before anything is stamped."""
        return program

    def _execute(
        self, shipped: Any, frontier: List[Tuple[str, Any]],
        ts: VectorTimestamp, query_id: int, trace_id: int,
    ) -> ProgramResult:
        """Run ``shipped`` from ``frontier`` at ``ts``, which every live
        shard has been sent what it needs to be ready for."""
        raise NotImplementedError

    # -- garbage collection (section 4.5) -----------------------------------

    def collect_garbage(self) -> Dict[str, int]:
        """Reclaim multi-version state below the GC watermark.

        The watermark is the oldest in-flight node program, or — when the
        system is idle — a fresh clock snapshot that dominates every
        issued timestamp (everything old is reclaimable).
        """
        reclaimed = {"graph": 0, "oracle": 0, "store": 0}
        self._announce()
        watermark = self.watermarks.watermark(
            self.gatekeepers[0].current_watermark()
        )
        self.drain()
        # After the drain every shard span below the watermark has
        # reached the tracer; announcing the watermark now lets an
        # attached online checker settle those events against decisions
        # that the collect_below calls are about to discard.
        self.tracer.emit(None, "gc.watermark", node="gc", ts=watermark)
        reclaimed["graph"] = sum(
            self._request_all_shards("collect_below", watermark)
        )
        reclaimed["oracle"], reclaimed["store"] = (
            self._collect_oracle_and_store(watermark)
        )
        return reclaimed


class Weaver(Coordinator):
    """A complete Weaver deployment in one process."""

    def __init__(self, config: Optional[WeaverConfig] = None):
        parts = build_cluster(config)
        super().__init__(parts, LocalTransport())
        self.shards: List[ShardServer] = parts.shards
        for shard in self.shards:
            self._register_shard(shard)

    def _register_shard(self, shard: ShardServer) -> None:
        self.transport.register(shard.name, ShardEndpoint(shard).deliver)

    # The benchmark's layer spans wrap these where each deployment
    # class defines them, so each binds the shared implementation in its
    # own class body.
    begin_transaction = Coordinator.begin_transaction
    collect_garbage = Coordinator.collect_garbage
    run_program = Coordinator.run_program

    # -- node programs (section 4.1) ---------------------------------------

    def _execute(
        self, program: NodeProgram, frontier: List[Tuple[str, Any]],
        ts: VectorTimestamp, query_id: int, trace_id: int,
    ) -> ProgramResult:
        # The shard-side readiness check, in process: the heartbeats
        # and advance_to were delivered synchronously, so a shard that
        # is not ready now never will be.
        for shard in self.shards:
            error = shard.not_ready(ts)
            if error is not None:
                raise error
        resolver = ShardSnapshotResolver(
            ts, self._shard_of, self.shards, stats=self.executor.stats,
        )
        return self.executor.execute(
            program, frontier, resolver, ts, query_id
        )

    # -- dynamic repartitioning (section 4.6) ------------------------------

    def migrate_vertex(self, handle: str, to_shard: int) -> bool:
        """Move one vertex (with its full version history) to a shard.

        The paper's dynamic colocation: a vertex is moved next to the
        majority of its neighbours to cut traversal communication.
        Pending queued work is applied first, the record travels with
        all its versions (historical queries keep working), and the
        durable vertex→shard mapping is updated atomically.  Returns
        False when the vertex already lives there.
        """
        if not 0 <= to_shard < len(self.shards):
            raise ClusterError(f"no shard {to_shard}")
        from_shard = self._shard_of(handle)
        if from_shard is None:
            raise NoSuchVertex(handle)
        if from_shard == to_shard:
            return False
        self.drain()
        vertex, archived = self.shards[from_shard].release_vertex(handle)
        self.shards[to_shard].adopt_vertex(vertex, archived)
        self.mapping.assign(handle, shard=to_shard)
        self._placement[handle] = to_shard
        return True

    def rebalance(self, max_moves: int = 64, min_gain: int = 1) -> int:
        """Greedy locality pass: move vertices toward their neighbours.

        For every vertex, count neighbours (both directions) per shard
        and migrate it to the plurality shard when that improves its
        colocated-neighbour count by at least ``min_gain``.  Returns the
        number of migrations performed.  This is the mechanism sketch of
        section 4.6, measured by ablation A9.
        """
        _, edges = graph_state_from_store(self.store.snapshot())
        neighbors: Dict[str, List[str]] = {}
        for (src, _), record in edges.items():
            neighbors.setdefault(src, []).append(record["dst"])
            neighbors.setdefault(record["dst"], []).append(src)
        moves = 0
        for handle, nbrs in neighbors.items():
            if moves >= max_moves:
                break
            here = self._shard_of(handle)
            if here is None:
                continue
            counts: Dict[int, int] = {}
            for nbr in nbrs:
                shard = self._shard_of(nbr)
                if shard is not None:
                    counts[shard] = counts.get(shard, 0) + 1
            if not counts:
                continue
            best = max(counts, key=lambda s: counts[s])
            if best != here and (
                counts[best] - counts.get(here, 0) >= min_gain
            ):
                if self.migrate_vertex(handle, best):
                    moves += 1
        return moves

    def edge_cut(self) -> Tuple[int, int]:
        """(cut, total) over committed edges — the locality metric the
        partitioning machinery optimizes."""
        _, edges = graph_state_from_store(self.store.snapshot())
        cut = 0
        for (src, _), record in edges.items():
            a = self._shard_of(src)
            b = self._shard_of(record["dst"])
            if a is not None and b is not None and a != b:
                cut += 1
        return cut, len(edges)

    # -- demand paging (section 6.1) -------------------------------------

    def enable_demand_paging(self) -> None:
        """Let shards evict vertices and reload them from the backing
        store on access — how the paper's CoinGraph deployment fit 900 GB
        of blockchain into 704 GB of cluster memory."""
        for shard in self.shards:
            shard.pager = functools.partial(vertex_image, self.store)

    def evict_vertex(self, handle: str) -> int:
        """Page one vertex out of shard memory.

        Queued work is applied first so no in-flight operation targets
        the evicted record; the next access pages it back in.
        """
        shard_index = self._shard_of(handle)
        if shard_index is None:
            raise NoSuchVertex(handle)
        self.drain()
        return self.shards[shard_index].evict(handle)

    # -- failure handling (section 4.3) -----------------------------------

    def fail_shard(self, index: int) -> ShardServer:
        """Crash and recover one shard server.

        In-flight (committed but unapplied) work on surviving shards is
        applied first — the epoch barrier; the replacement reloads its
        partition from the backing store.
        """
        self.drain()
        replacement = self.manager.recover_shard(index)
        replacement.tracer = self.tracer
        self.shards[index] = replacement
        self._register_shard(replacement)
        self._reset_channels()
        return replacement

    def fail_gatekeeper(self, index: int) -> Gatekeeper:
        """Crash and recover one gatekeeper (epoch bump, clocks restart)."""
        self.drain()
        replacement = self.manager.recover_gatekeeper(index)
        replacement.tracer = self.tracer
        self.gatekeepers[index] = replacement
        self._reset_channels()
        return replacement
