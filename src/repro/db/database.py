"""The Weaver database: gatekeepers + shards + oracle + backing store.

The paper's client-side write/read protocol (section 4.2) does not
depend on where the shards live, so it is written once, split where
deployments differ — whether anything may wait:

* :class:`WritePath` — the clock-free part: place new vertices →
  gatekeeper stamp and backing-store commit → per-(gatekeeper, shard)
  FIFO enqueue with sequence numbers and one global send rank; plus
  the oracle + store tail every GC pass ends with and the two ends of
  a shard-resident program (the ``program_start`` request, the reply
  as a result).  It only ever calls ``transport.send``, so every
  deployment inherits it.
* :class:`Coordinator` (a ``WritePath``) — everything that blocks:
  ``begin_transaction``, announce / drain pacing by commit count, NOP
  heartbeats so every queue is non-empty → a one-way ``advance_to``
  ahead of a node program, which the shard checks for itself — once
  per change to the graph, not once per read: until a commit is
  attempted, programs run at the stamp the shards were last made
  ready for; plus drain, checkpoint and the GC fan-out.  It reaches
  shards only through
  the :class:`~repro.cluster.transport.Transport` contract (``send``
  for enqueues, heartbeats and ``advance_to``; one ``request_all``
  fan-out for ``drain`` / ``collect_below`` / ``advance_epoch``), and
  every shard answers through the same
  :class:`~repro.cluster.worker.ShardEndpoint`.
* :class:`Weaver` (this module) — the deployment in one process: a
  ``LocalTransport`` over endpoints wrapping its live ``ShardServer``
  list, and what genuinely needs in-process shards (the local snapshot
  resolver and client-side program cache, migration, read replicas,
  demand paging, crash drills).
* :class:`~repro.cluster.process.ProcessWeaver` — the same coordinator
  over a ``ProcessTransport`` to forked shard workers.

Both coordinators execute the protocol synchronously — announce rounds
every ``announce_every`` commits play the role of the τ timer, and NOP
heartbeats are issued eagerly when a node program needs every queue
non-empty and the last ones no longer serve (the paper's timers are
background traffic, never a per-read cost).  The discrete-event
:class:`~repro.sim.deployment.SimulatedWeaver` is a ``WritePath`` over
a ``SimTransport``: the same commit, channel stamping and shard
endpoint, fired by its own timers.
"""

from __future__ import annotations

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
from ..graph.partition import HashPartitioner, LdgPartitioner
from ..programs.caching import ChangeTracker, ProgramCache
from ..programs.framework import NodeProgram, ProgramResult
from ..programs.library import PROGRAM_REGISTRY
from ..programs.routing import ShardSnapshotResolver
from ..programs.state import WatermarkRegistry
from .config import WeaverConfig
from .transactions import Transaction

StartSpec = Union[str, Iterable[Tuple[str, Any]]]


class WritePath:
    """The clock-free write path of section 4.2: gatekeeper stamp →
    backing-store commit → per-(gatekeeper, shard) FIFO enqueue.

    Nothing here blocks, waits for a reply or decides *when* gatekeepers
    announce, so the blocking :class:`Coordinator` and the discrete-event
    :class:`~repro.sim.deployment.SimulatedWeaver` both inherit it.
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
        self._ldg_partitioner = LdgPartitioner(cfg.num_shards)

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
        gk = self.gatekeepers[tx.gatekeeper_index]
        placed = self._place_new_vertices(tx)
        ts = gk.commit_prepared(
            tx.store_tx, tx.touched_vertices, trace_id=tx.trace_id
        )
        self._forward_to_shards(gk.index, ts, tx)
        self._on_commit(tx, placed)
        return ts

    def _on_commit(self, tx: Transaction, placed: Dict[str, int]) -> None:
        """Deployment bookkeeping for a transaction that is durable and
        forwarded; ``placed`` maps the vertices it created to shards."""

    def _place_new_vertices(self, tx: Transaction) -> Dict[str, int]:
        """Install shard assignments for created vertices, atomically with
        the transaction itself (they share the store transaction)."""
        partitioner = self.config.partitioner
        placed: Dict[str, int] = {}
        for vertex in tx.created_vertices:
            if partitioner == "hash":
                shard = self._hash_partitioner.assign(vertex)
            elif partitioner == "ldg":
                shard = self._ldg_partitioner.assign(vertex, ())
            else:
                shard = None  # the mapping's round-robin cursor
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
        cache_tail: Optional[Hashable],
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
            cache_tail=cache_tail, max_visits=self.executor._max_visits,
            init=init,
        )

    @staticmethod
    def _program_result(payload: dict) -> ProgramResult:
        """The coordinating shard's reply as the caller's result: its
        payload is a program context by field name, the read set sorted
        for the wire; a failed program raises by the shard's text."""
        if payload.get("error"):
            raise ProgramError(payload["error"])
        payload["read_set"] = set(payload["read_set"])
        return ProgramResult(SimpleNamespace(**payload))

    # -- garbage collection (section 4.5) -----------------------------------

    def _collect_oracle_and_store(
        self, watermark: VectorTimestamp
    ) -> Tuple[int, int]:
        """What every GC pass ends with: (oracle events, store records)
        reclaimed.  Store compaction uses the store's own commit
        counter, not the vector watermark: every version below the
        oldest open store snapshot is superseded for all future readers.
        When the opportunistic background compactor owns reclamation,
        the GC tick must not double-compact under it."""
        events = self.oracle.collect_below(watermark)
        records = 0
        if not getattr(self.store, "background_compaction_active", False):
            records = self.store.collect_below(
                self.store.safe_compact_version()
            )
        return events, records


class Coordinator(WritePath):
    """The blocking client-side protocol: the write path plus everything
    that waits — announce/drain pacing, eager NOP heartbeats, readiness
    ahead of a node program, drain, checkpoint and the GC fan-out.
    There is no time axis: spans are stamped with their emission
    sequence number (still a total order).

    Subclasses choose the transport and own whatever depends on where
    the shards live; nothing here does.
    """

    def __init__(self, parts: ClusterParts, transport: Transport):
        super().__init__(parts, transport)
        self.watermarks = WatermarkRegistry(cmp=lambda a, b: a.compare(b))
        self._commits = 0
        self._commits_since_drain = 0
        # The timestamp every live shard was last advanced to, while
        # that round's heartbeats are still queued behind it.
        self._advanced_to: Optional[VectorTimestamp] = None
        # The last stamp _stamp_program issued itself; any commit
        # attempt forgets it.  Reusable only while it is also the mark.
        self._read_stamp: Optional[VectorTimestamp] = None
        self.programs_run = 0

    # -- shards, by name ------------------------------------------------

    def _live_shards(self) -> List[int]:
        """Indices of the shards that can be reached right now: all of
        them, unless the deployment can lose one."""
        return self._all_shards

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
        # First, before the gatekeeper stamps: whatever happens to this
        # attempt (a forward may raise after the store committed), no
        # later program reads at a stamp issued before it.  An aborted
        # attempt costs one spare storm, the safe side.
        self._read_stamp = None
        # Commit counts stand in for the τ timer and the apply loop.
        ts = super()._commit_transaction(tx)
        self._commits += 1
        if self._commits % self.config.announce_every == 0:
            sync_announce_all(self.gatekeepers)
        self._commits_since_drain += 1
        if self._commits_since_drain >= self.config.drain_every:
            self.drain()
        return ts

    def _reset_channels(self) -> None:
        # An epoch barrier cleared every shard queue and its expected
        # sequence numbers; restart the sender side to match.
        self._channel_seqno.clear()
        self._advanced_to = None

    # -- queue pumping -----------------------------------------------------

    def _send_nops(self) -> None:
        """One NOP from every gatekeeper to every shard (section 4.2's
        heartbeat, issued eagerly instead of on a 10 µs timer).

        A single announce round runs first; after it, each NOP is folded
        directly into the next gatekeeper's clock before that one ticks,
        so the NOPs form a vector-clock chain instead of a mutually-
        concurrent set — heartbeats then order proactively and never
        burden the oracle, as in the real system where announces
        (τ ~ tens of µs) interleave the NOP timers.  Chaining costs G-1
        point-to-point folds instead of the seed's G full announce
        rounds (O(G²) messages each).
        """
        sync_announce_all(self.gatekeepers)
        previous: Optional[VectorTimestamp] = None
        live = self._live_shards()
        for gk in self.gatekeepers:
            if previous is not None:
                gk.receive_announce(previous.clocks)
            nop_ts = gk.make_nop()
            previous = nop_ts
            for shard_index in live:
                self._enqueue(gk.index, shard_index, QueuedTransaction(nop_ts))
        # Announce the final NOP too, so every later stamp dominates it.
        sync_announce_all(self.gatekeepers)

    def drain(self) -> int:
        """Announce, heartbeat, and apply everything applicable on every
        shard (one fan-out)."""
        self._send_nops()
        self._commits_since_drain = 0
        self._advanced_to = None
        return sum(self._request_all_shards("drain", None))

    def checkpoint(self) -> VectorTimestamp:
        """A timestamp usable for stable historical queries.

        The returned stamp dominates every committed write, and the
        announce round after issuing it guarantees every *later* stamp
        dominates it — so a query ``at=checkpoint`` always sees exactly
        the writes committed before the call, no matter when it runs
        (section 3.1's multi-version historical reads).
        """
        sync_announce_all(self.gatekeepers)
        ts = self.gatekeepers[self._pick_gatekeeper()].issue_timestamp()
        sync_announce_all(self.gatekeepers)
        return ts

    # -- node programs: the shared prologue/epilogue (section 4.1) --------

    def _submit_program(
        self, program: NodeProgram, start: StartSpec, params: Any
    ) -> Tuple[List[Tuple[str, Any]], int, int]:
        """Normalize ``start`` and open the trace: (frontier, query id,
        trace id)."""
        frontier = (
            [(start, params)] if isinstance(start, str) else list(start)
        )
        query_id = next(self._query_counter)
        trace_id = self.tracer.next_trace_id()
        self.tracer.emit(
            trace_id, "program.submit", node="client",
            query_id=query_id, program=program.name,
        )
        return frontier, query_id, trace_id

    def _stamp_program(
        self, trace_id: int, query_id: int, at: Optional[VectorTimestamp]
    ) -> VectorTimestamp:
        """The timestamp the program runs at — the historical ``at``,
        the last stamp issued here while nothing has changed, or a fresh
        one — with every shard sent what it needs to execute there.

        A current read reuses the stamp this method last issued, sending
        and announcing nothing, while (i) that stamp ``is`` still the
        readiness mark — a drain, an epoch reset, a recovery or an
        ``at=`` read that advanced the shards past it all move the mark,
        and an ``at=`` stamp never becomes the reusable one — and (ii)
        no commit has entered :meth:`_commit_transaction` since.  Every
        write acknowledged before the stamp was issued is ordered before
        it (vector clock, or section 4.1's transaction-first rule for a
        concurrent pair); every later write is stamped after the storm's
        final announce, so after it; with no commit in between, a read
        there sees every acknowledged write and nothing else, and two
        programs on one stamp read one snapshot.  ``checkpoint()`` is
        how a caller asks for a stamp of its own.
        """
        # The round robin moves per program either way, so the next
        # commit lands on the gatekeeper it always did.
        gk = self.gatekeepers[self._pick_gatekeeper()]
        reused = {}
        if at is not None:
            ts = at
        elif self._read_stamp is not None and (
            self._read_stamp is self._advanced_to
        ):
            ts, reused = self._read_stamp, {"reused": True}
        else:
            ts = self._read_stamp = gk.issue_timestamp()
        self.tracer.emit(
            trace_id, "program.stamp", node=f"gk{ts.issuer}",
            ts=ts, query_id=query_id, **reused,
        )
        self._make_shards_ready(ts)
        return ts

    def _complete_program(
        self, trace_id: int, query_id: int, **attrs: Any
    ) -> None:
        # A cache hit is still a client-observed run: count it and close
        # the trace so `repro stats`/`repro trace` agree with what
        # clients saw.
        self.programs_run += 1
        self.tracer.emit(
            trace_id, "program.complete", node="client",
            query_id=query_id, **attrs,
        )

    @staticmethod
    def _cache_tail(
        params: Any, at: Optional[VectorTimestamp],
        cache_key: Optional[Hashable],
    ) -> Hashable:
        """The caller-chosen part of a program-cache key.  Historical
        queries read a different cut of the graph; a current-time result
        must never serve an ``at=`` query (or vice versa), so the
        snapshot identity is part of the key (section 4.6)."""
        tail = cache_key if cache_key is not None else repr(params)
        return tail if at is None else (tail, at.id)

    def _make_shards_ready(self, ts: VectorTimestamp) -> None:
        """Send every live shard what makes it ready for ``ts``, and
        ask nothing (sections 4.1-4.2: the program waits at the shard;
        the client negotiates no readiness in rounds before it).

        Announce so later heartbeats dominate ``ts``, heartbeat so every
        queue is non-empty, then a one-way ``advance_to`` so the shard
        applies all work ordered before ``ts``.  Whoever snapshots at
        the shard verifies ``ready_for(ts)`` there and fails by name.  A
        batching transport carries all of this inside the next request
        frame on each channel; the caller flushes the channels it is
        not about to make a request on.

        Fast path: at or before the timestamp the shards were last
        advanced to, everything ordered before ``ts`` is applied and
        that round's heartbeats are still queued after it (a drain, an
        epoch reset or a recovery forgets the mark) — nothing to send.
        A reused read stamp (:meth:`_stamp_program`) *is* the mark, so
        it always lands here; a fresh one dominates the mark (both
        storms and ``checkpoint`` end in an announce) and never does.
        """
        stats = self.executor.stats
        mark = self._advanced_to
        if mark is not None and ts.compare(mark) in (
            Ordering.BEFORE, Ordering.EQUAL
        ):
            stats.readiness_fastpath_hits += 1
            return
        stats.readiness_storms += 1
        self._send_nops()
        names = self._shard_names
        for shard_index in self._live_shards():
            self.transport.send(
                "client", names[shard_index], "advance_to", ts
            )
        self._advanced_to = ts

    # -- garbage collection (section 4.5) -----------------------------------

    def collect_garbage(self) -> Dict[str, int]:
        """Reclaim multi-version state below the GC watermark.

        The watermark is the oldest in-flight node program, or — when the
        system is idle — a fresh clock snapshot that dominates every
        issued timestamp (everything old is reclaimable).
        """
        reclaimed = {"graph": 0, "oracle": 0, "ordering_cache": 0, "store": 0}
        sync_announce_all(self.gatekeepers)
        watermark = self.watermarks.watermark(
            self.gatekeepers[0].current_watermark()
        )
        self.drain()
        # After the drain every shard span below the watermark has
        # reached the tracer; announcing the watermark now lets an
        # attached online checker settle those events against decisions
        # that the collect_below calls are about to discard.
        self.tracer.emit(None, "gc.watermark", node="gc", ts=watermark)
        for graph, cache in self._request_all_shards(
            "collect_below", watermark
        ):
            reclaimed["graph"] += graph
            reclaimed["ordering_cache"] += cache
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
        self.changes = ChangeTracker()
        self.program_cache: Optional[ProgramCache] = (
            ProgramCache(self.changes)
            if self.config.enable_program_cache
            else None
        )
        self._paging_enabled = False
        self._replicas: list = []

    def _register_shard(self, shard: ShardServer) -> None:
        self.transport.register(shard.name, ShardEndpoint(shard).deliver)

    # The benchmark's layer spans wrap these where each deployment
    # class defines them, so each binds the shared implementation in its
    # own class body.
    begin_transaction = Coordinator.begin_transaction
    collect_garbage = Coordinator.collect_garbage

    def _on_commit(self, tx: Transaction, placed: Dict[str, int]) -> None:
        self.changes.bump_all(tx.touched_vertices)

    # -- node programs (section 4.1) ---------------------------------------

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
        memoized result for (program, start, cache_key) is returned
        without touching the graph.
        """
        frontier, query_id, trace_id = self._submit_program(
            program, start, params
        )
        cache_entry_key = None
        if use_cache and self.program_cache is not None:
            first = frontier[0][0] if frontier else ""
            cache_entry_key = ProgramCache.key(
                program.name, vars(program), first,
                self._cache_tail(params, at, cache_key),
            )
            cached = self.program_cache.get(cache_entry_key)
            if cached is not None:
                self._complete_program(trace_id, query_id, cache_hit=True)
                return cached
        ts = self._stamp_program(trace_id, query_id, at)
        self.watermarks.start(query_id, ts)
        try:
            result = self.executor.execute(
                program, frontier, self._resolver(ts), ts, query_id
            )
        finally:
            self.watermarks.finish(query_id)
        self._complete_program(trace_id, query_id)
        if cache_entry_key is not None:
            self.program_cache.put(cache_entry_key, result, result.read_set)
        return result

    def _resolver(self, ts: VectorTimestamp) -> ShardSnapshotResolver:
        # The shard-side readiness check, in process: the heartbeats
        # and advance_to were delivered synchronously, so a shard that
        # is not ready now never will be.
        for shard in self.shards:
            error = shard.not_ready(ts)
            if error is not None:
                raise error
        return ShardSnapshotResolver(
            ts,
            self._shard_of,
            self.shards,
            stats=self.executor.stats,
            page_in=True,
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
        # A paged-out vertex must be resident before its record can move.
        self.shards[from_shard].ensure_paged(handle)
        vertex, archived = self.shards[from_shard].graph.release_vertex(
            handle
        )
        self.shards[to_shard].graph.adopt_vertex(vertex, archived)
        self.mapping.assign(handle, shard=to_shard)
        self._placement[handle] = to_shard
        return True

    def rebalance(self, max_moves: int = 64, min_gain: int = 1) -> int:
        """Greedy locality pass: move vertices toward their neighbours.

        For every vertex, count neighbours (both directions) per shard
        and migrate it to the plurality shard when that improves its
        colocated-neighbour count by at least ``min_gain``.  Returns the
        number of migrations performed.  This is the online counterpart
        of the offline LDG partitioner (ablation A2) and the mechanism
        sketch of section 4.6.
        """
        from .operations import graph_state_from_store

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
        from .operations import graph_state_from_store

        _, edges = graph_state_from_store(self.store.snapshot())
        cut = 0
        for (src, _), record in edges.items():
            a = self._shard_of(src)
            b = self._shard_of(record["dst"])
            if a is not None and b is not None and a != b:
                cut += 1
        return cut, len(edges)

    # -- read replicas (section 6.4) --------------------------------------

    def add_read_replica(self, shard_index: int):
        """Attach an eventually-consistent read replica to one shard.

        Replica reads bypass the ordering machinery entirely (weaker
        consistency, per section 6.4); call :meth:`refresh_replicas` to
        advance them to the current committed state.
        """
        from ..cluster.replica import ReadReplica

        if not 0 <= shard_index < len(self.shards):
            raise ClusterError(f"no shard {shard_index}")
        replica = ReadReplica(self.shards[shard_index])
        self._replicas.append(replica)
        replica.refresh(self.checkpoint())
        self.drain()
        return replica

    def refresh_replicas(self) -> None:
        """Advance every replica to a fresh consistent snapshot."""
        if not self._replicas:
            return
        point = self.checkpoint()
        self.drain()
        for replica in self._replicas:
            replica.refresh(point)

    # -- demand paging (section 6.1) -------------------------------------

    def enable_demand_paging(self) -> None:
        """Let shards evict vertices and reload them from the backing
        store on access — how the paper's CoinGraph deployment fit 900 GB
        of blockchain into 704 GB of cluster memory."""
        self._paging_enabled = True
        for shard in self.shards:
            shard.set_pager(self._load_committed_vertex)

    def _load_committed_vertex(self, handle: str):
        from .operations import vertex_key

        record = self.store.get(vertex_key(handle))
        if record is None:
            return None
        prefix = f"e:{handle}:"
        edges = {
            key[len(prefix):]: self.store.get(key)
            for key in self.store.keys(prefix)
        }
        return {"properties": dict(record), "edges": edges}

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

    def paging_stats(self) -> Dict[str, int]:
        return {
            "pages_in": sum(s.stats.pages_in for s in self.shards),
            "pages_out": sum(s.stats.pages_out for s in self.shards),
        }

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
        if self._paging_enabled:
            replacement.set_pager(self._load_committed_vertex)
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

    # -- statistics -----------------------------------------------------

    def ordering_stats(self) -> Dict[str, int]:
        """Aggregate proactive/cached/reactive comparison counts across
        shards — the Fig 9 'reactively ordered' percentages."""
        totals = {"proactive": 0, "cached": 0, "reactive": 0}
        for shard in self.shards:
            stats = shard.ordering.stats
            totals["proactive"] += stats.proactive
            totals["cached"] += stats.cached
            totals["reactive"] += stats.reactive
        return totals

    def fastpath_stats(self) -> Dict[str, int]:
        """Counters for work the ordering fast paths avoided entirely.

        Kept separate from :meth:`ordering_stats` so the reactive-fraction
        arithmetic the figures report stays on resolved comparisons only.
        """
        totals = {
            "snapshot_memo_hits": 0,
            "heap_compares_saved": 0,
            "cache_hits": 0,
        }
        for shard in self.shards:
            stats = shard.ordering.stats
            totals["snapshot_memo_hits"] += stats.snapshot_memo_hits
            totals["heap_compares_saved"] += stats.heap_compares_saved
            if shard.ordering.cache is not None:
                totals["cache_hits"] += shard.ordering.cache.hits
        oracle_stats = self.oracle_head().stats
        totals["oracle_bfs_expansions"] = oracle_stats.bfs_expansions
        totals["oracle_bfs_pruned"] = oracle_stats.bfs_pruned
        totals["oracle_reach_cache_hits"] = oracle_stats.reach_cache_hits
        return totals

    def oracle_head(self):
        """The oracle state machine holding authoritative stats."""
        return getattr(self.oracle, "head", self.oracle)
