"""An event-driven Weaver deployment on the discrete-event simulator.

This module runs the *same server objects* as the direct-mode
:class:`~repro.db.database.Weaver` — gatekeepers, shard servers, the
timeline oracle, the backing store — and the *same write path*
(:class:`~repro.db.database.WritePath`: place, commit, stamp the FIFO
channels, announce every ``announce_every`` commits; shards receive
through :class:`~repro.cluster.worker.ShardEndpoint`) and the *same
program engine* (:class:`~repro.cluster.worker.ResidentEngine`, one per
shard, hosted by :class:`_ShardHost`) asynchronously over the simulated
network:

* an announce round is one message from every live gatekeeper to every
  live peer, and pays network latency like everything else;
* transactions travel client -> gatekeeper -> (store commit) -> shards
  on FIFO channels with sequence numbers;
* node programs take the coordinators' read decision and readiness
  rule (``WritePath``: cache at submit, stamp choice at the gatekeeper
  after its service time, one heartbeat round per fresh stamp, finish
  at the reply); a program waits at its start vertex's shard until
  every queue head is ordered after it — real simulated time, which the
  tests bound — then propagates shard to shard and replies shard ->
  client;
* heartbeats flow to the cluster manager, whose failure detector runs
  on simulated time.

The simulator's own is what fires on simulated time: the heartbeat /
detector / GC timers, service-time charging, fault hooks,
:class:`TauController`, the deadline-delayed commit ack, how an
announce round and a heartbeat round's NOPs travel
(:meth:`SimulatedWeaver._announce`, :meth:`SimulatedWeaver._send_nops`)
and the engine host's parked messages (a program message that outran
its round's NOPs waits at its shard).

This is the substrate for protocol-fidelity experiments: the Fig 14
tradeoff emerges here from announce rounds that travel, not from a
modelling shortcut.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace as dc_replace
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..cluster.builder import build_cluster
from ..cluster.messages import AnnounceMessage, Heartbeat, QueuedTransaction
from ..cluster.shard import ShardServer
from ..cluster.transport import SimTransport, TransportError
from ..cluster.worker import ResidentEngine, ShardEndpoint
from ..core.gatekeeper import DeadlineStamper, Gatekeeper
from ..core.vclock import VectorTimestamp
from ..db.config import WeaverConfig
from ..db.database import StartSpec, WritePath
from ..db.operations import Operation
from ..db.transactions import Transaction
from ..errors import ProgramError, TransactionAborted
from ..programs.caching import CacheKey
from ..programs.framework import NodeProgram, ProgramResult
from .clock import USEC
from .faults import FaultInjector, FaultPlan, GATEKEEPER
from .network import Network, RegionTopology
from .simulator import Server, Simulator

DEFAULT_HEARTBEAT = 0.1
# Clock-skew bound of the deadline fast path.  The simulator's clock is
# perfectly synchronized, so any positive bound is sound; 5 µs models a
# PTP-disciplined fleet and keeps the fast path honest about skew.
DEFAULT_SKEW_BOUND = 5 * USEC


class TauController:
    """Dynamic adjustment of the announce period (section 3.5).

    The paper observes that τ "can be adjusted dynamically based on the
    system workload": a quiescent system need not announce at all, a
    busy one should announce often enough to keep the oracle off the
    critical path, but not so often that announce processing dominates.

    This controller implements that feedback loop on the quantity Fig 14
    plots — coordination messages of each kind per window.  When oracle
    traffic rivals announce traffic, τ shrinks (announce more, order
    proactively); when announces exceed oracle traffic by more than
    ``balance_ratio``, τ grows (the oracle is nearly idle; stop paying
    for announces).  Adjustments are multiplicative within ``bounds``,
    seeking Fig 14's crossover region.  τ has whatever unit the caller
    gives it: the twin feeds it its ``announce_every``, commits per
    round.
    """

    def __init__(
        self,
        initial_tau: float,
        bounds: Tuple[float, float] = (10 * USEC, 10e-3),
        balance_ratio: float = 8.0,
        factor: float = 2.0,
    ):
        low, high = bounds
        if not 0 < low <= initial_tau <= high:
            raise ValueError("initial tau outside bounds")
        if factor <= 1.0:
            raise ValueError("adjustment factor must exceed 1")
        if balance_ratio < 1.0:
            raise ValueError("balance ratio must be at least 1")
        self.tau = initial_tau
        self.bounds = bounds
        self.balance_ratio = balance_ratio
        self.factor = factor
        self.adjustments: List[Tuple[float, int]] = []

    def observe(
        self, oracle_messages: int, announce_messages: int, committed: int
    ) -> float:
        """Feed one window's counters; returns the (possibly new) τ.

        Idle windows (``committed == 0``) neither adjust τ nor record an
        adjustment sample: a quiescent system's all-zero windows used to
        pad ``adjustments`` and skew the Fig 14 harness's trajectory
        summaries toward whatever τ the system idled at.
        """
        low, high = self.bounds
        if committed <= 0:
            return self.tau
        if oracle_messages > max(1, announce_messages):
            # Reactive ordering rivals the proactive machinery:
            # announce more often.
            self.tau = max(low, self.tau / self.factor)
        elif announce_messages > self.balance_ratio * max(
            1, oracle_messages
        ):
            # Announce chatter dwarfs the oracle's load: back off.
            self.tau = min(high, self.tau * self.factor)
        self.adjustments.append((self.tau, oracle_messages))
        return self.tau


@dataclass
class _SimProgram:
    """One submitted node program, client side: what the read decision
    stamps (again, after a recovery), the shards run and the reply
    completes."""

    program: NodeProgram
    shipped: Tuple[str, Optional[dict]]  # (name, init), as on the wire
    frontier: List[Tuple[str, Any]]
    at: Optional[VectorTimestamp]
    key: Optional[CacheKey]  # the program cache's, when it is asked
    callback: Optional[Callable[[Optional[ProgramResult]], None]]
    submitted: float
    trace_id: int
    attempt: int = 0  # commit attempts when the stamp was chosen


class _ShardHost(ResidentEngine):
    """One shard on simulated time: the resident engine, hosted by the
    simulator.

    Peers and the client are reached through the deployment's
    ``SimTransport`` (latency, faults, service time); the wait for
    readiness is a parked message the pump retries after every delivery
    and at its deadline — here the heartbeats that make a shard ready
    travel on their own channels, not ahead of the program on one
    socket.
    """

    def __init__(self, db: "SimulatedWeaver", shard: ShardServer):
        super().__init__(ShardEndpoint(shard), shard.index, db._shard_of)
        self.db = db
        self.prog_stats = db.executor.stats
        #: (timestamp, conn, envelope) this shard is not ready for yet.
        self.parked: List[tuple] = []
        # (rounds, entries) of ``resident`` already charged as service.
        self._charged = (0, 0)

    def handle(self, src: str, kind: str, payload: Any) -> None:
        """The transport handler: the message into the engine, then the
        pump."""
        if kind == "program_start":
            envelope = {
                "k": "r", "id": payload.query_id, "kind": kind, "p": payload,
            }
        else:
            envelope = {"k": "b", "m": [(kind, payload)]}
        self._pump(src, envelope)

    def _pump(self, conn=None, envelope: Optional[dict] = None) -> None:
        """What a real shard's event loop runs on a delivery, and at a
        parked message's deadline: the crash check, the message, then
        every parked message ``advance_to`` now admits (or whose
        deadline passed) is dispatched again.  Nothing else is applied:
        a shard applies up to the ``advance_to`` it receives, so the
        latest round's NOPs stay queued for the reads that reuse its
        stamp."""
        if self.worker.shard.name in self.db._crashed:
            return  # messages to a dead server vanish
        if envelope is not None:
            self._dispatch(conn, envelope)
        self.drain()
        now = self.db.simulator.now
        parked, self.parked = self.parked, []
        for held in parked:
            ts, conn, envelope = held
            if self.worker.shard.advance_to(ts) or now >= envelope["until"]:
                self._dispatch(conn, envelope)
            else:
                self.parked.append(held)
        self.drain()

    def reset(self) -> None:
        """Epoch barrier: every in-flight program is forgotten."""
        self._clear_resident_state()
        self.parked.clear()
        self.pending.clear()

    # -- the four ways out ----------------------------------------------

    def _hold(self, conn, envelope: dict, ts: VectorTimestamp) -> bool:
        now = self.db.simulator.now
        if "until" not in envelope:
            envelope["until"] = now + self.READY_DEADLINE
            self.db.simulator.schedule_at(envelope["until"], self._pump)
        elif now >= envelope["until"]:
            return False
        self.parked.append((ts, conn, envelope))
        return True

    def _send(self, dst: str, kind: str, payload: Any) -> None:
        """``transport.send`` — with a cost model attached, at the end
        of this shard's service time: the round slices run since the
        last message left occupy the shard first, one job each, paying
        one message-handling cost plus per-vertex read service (the
        paper's shard-to-shard batch propagation, not one message per
        vertex; slices run back to back, so each is charged their mean
        size)."""
        db = self.db
        src = self.worker.shard.name
        if db.costs is None:
            db.transport.send(src, dst, kind, payload)
            return
        server = db._shard_servers[self.index]
        stats = self.resident
        rounds = stats.rounds_executed - self._charged[0]
        if rounds:
            entries = stats.entries_processed - self._charged[1]
            for _ in range(rounds):
                server.occupy(
                    db.costs.shard_op_service
                    + entries / rounds * db.costs.vertex_read_service
                )
            self._charged = (stats.rounds_executed, stats.entries_processed)
        db.simulator.schedule_at(
            max(db.simulator.now, server.busy_until),
            db.transport.send, src, dst, kind, payload,
        )

    def _peer_send(self, dst: int, kind: str, payload: Any) -> None:
        self._send(self.db._shard_names[dst], kind, payload)

    def _reply(self, conn, rid: int, result=None, error=None) -> None:
        if error is not None:
            result = {"error": error}
        self._send("client", "prog-reply", (rid, result))

    def _peer_request(self, dst: int, kind: str, payload: Any) -> Any:
        """The gather, which the engine makes synchronously: a direct
        call that only a crashed peer can fail."""
        name = self.db._shard_names[dst]
        if name in self.db._crashed:
            raise TransportError(f"{name} is down", name)
        return self.db._engines[dst]._handle_request(kind, payload)


class SimulatedWeaver(WritePath):
    """The full protocol running on simulated time."""

    def __init__(
        self,
        config: Optional[WeaverConfig] = None,
        heartbeat_period: float = DEFAULT_HEARTBEAT,
        latency: float = 100 * USEC,
        gc_period: float = 0.01,
        tau_controller: Optional[TauController] = None,
        adapt_window: float = 2e-3,
        costs=None,
        fault_plan: Optional[FaultPlan] = None,
        topology: Optional[RegionTopology] = None,
        rng=None,
    ):
        config = config or WeaverConfig()
        if tau_controller is not None and tau_controller.bounds[0] < 1:
            raise ValueError("an announce round covers at least one commit")
        self.heartbeat_period = heartbeat_period
        self.gc_period = gc_period
        self.tau_controller = tau_controller
        self.adapt_window = adapt_window
        self.simulator = Simulator()
        self.fault_plan = fault_plan
        num_regions = config.num_regions
        if topology is None and num_regions > 1:
            # Uniform geo topology: every region edge pays the global
            # latency, so the deployment shape is geo but the timing is
            # the single-region one.
            topology = RegionTopology(
                [[latency] * num_regions for _ in range(num_regions)]
            )
        if topology is not None and topology.num_regions != num_regions:
            raise ValueError(
                f"topology has {topology.num_regions} regions but "
                f"config.num_regions is {num_regions}"
            )
        self.topology = topology
        injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        self.network = Network(
            self.simulator, latency=latency, fault_injector=injector,
            topology=topology, rng=rng,
        )
        # The deterministic twin of the process deployment: same parts
        # from the same builder, the same write path, with the message
        # contract routed over the simulated network instead of sockets.
        # Spans are stamped with simulated time.
        transport = SimTransport(self.network)
        parts = build_cluster(
            config,
            heartbeat_timeout=2.5 * heartbeat_period,
            tracer_clock=lambda: self.simulator.now,
            network=self.network,
            use_store_nodes=False,
        )
        super().__init__(parts, transport)
        if tau_controller is not None:
            self.announce_every = int(tau_controller.tau)
        self.metrics.absorb("transport", lambda: transport.stats)
        # The engines' counters, summed under the names the process
        # deployment exports for its workers.
        self.metrics.absorb(
            "program.resident",
            lambda: [e.resident for e in self._engines.values()],
        )
        self.metrics.register_collector(self._sim_metrics)
        self.shards: List[ShardServer] = parts.shards
        # Geo deployment (config.num_regions > 1): place every server in
        # its region, give each region one deadline stamper (it survives
        # gatekeeper recovery), and arm the shard orderings' deadline
        # fast path.
        self._geo = num_regions > 1
        self.skew_bound = DEFAULT_SKEW_BOUND if self._geo else None
        self._deadline_stampers: List[DeadlineStamper] = []
        if self._geo:
            for name, region in parts.region_of.items():
                self.topology.assign(name, region)
            self._deadline_stampers = [
                DeadlineStamper(
                    lambda: self.simulator.now, self.topology.reach(r)
                )
                for r in range(num_regions)
            ]
            for gk in self.gatekeepers:
                gk.deadline_stamper = self._deadline_stampers[
                    parts.region_of[gk.name]
                ]
            for shard in self.shards:
                shard.ordering.skew_bound = self.skew_bound
        # Optional service-time accounting: with a CostParams attached,
        # gatekeepers, shards and the backing store's nodes become
        # serially-busy resources and the deployment yields
        # protocol-level *performance*, not just protocol-level behaviour.
        self.costs = costs
        self._gk_servers = [
            Server(self.simulator, gk.name) for gk in self.gatekeepers
        ]
        self._shard_servers = [
            Server(self.simulator, s.name) for s in self.shards
        ]
        self._store_servers = [
            Server(self.simulator, f"store{i}")
            for i in range(costs.store_nodes if costs is not None else 0)
        ]
        self._next_store = itertools.count()
        self._crashed: set = set()
        # Delivery callbacks, keyed by stable server *names*: gatekeeper
        # handlers re-fetch by index and a replacement shard registers
        # its own endpoint, so in-flight messages reach the replacement.
        self.transport.register("manager", self._on_manager_message)
        for gk in self.gatekeepers:
            self.transport.register(
                gk.name, self._make_gk_handler(gk.index)
            )
        self.transport.register("client", self._on_program_reply)
        self._engines: Dict[int, _ShardHost] = {}
        for shard in self.shards:
            self._register_shard(shard)
        # The latency histograms are the data source for the Fig 10/11
        # latency CDFs.
        self.latency_tx = self.metrics.histogram("latency.tx_commit")
        self.latency_program = self.metrics.histogram("latency.program")
        # Node programs in flight, as data: on their way to a gatekeeper
        # (by the token the submission carries), then stamped and running
        # at the shards (by query id).
        self._submitted: Dict[int, _SimProgram] = {}
        self._stamped: Dict[int, _SimProgram] = {}
        self.committed = 0
        self.aborted = 0
        self.recoveries = 0
        # The last NOP of each region: the next round's first link there
        # is made after it (one heartbeat chain per region).
        self._last_nop: Dict[int, VectorTimestamp] = {}
        self._start_timers()

    # -- delivery callbacks (the transport contract) ----------------------

    def _make_gk_handler(self, index: int):
        def handle(src: str, kind: str, payload: Any) -> None:
            if kind == "announce":
                announce, epoch, deadline = payload
                self._deliver_announce(
                    index, epoch, announce.vector, deadline
                )
            elif kind == "tx-submit":
                self._gatekeeper_commit(index, *payload)
            elif kind == "prog-submit":
                self._gatekeeper_stamp(index, payload)
            elif kind == "nop-round":
                self._chain_nops(index, payload)

        return handle

    def _register_shard(self, shard: ShardServer) -> None:
        """Put ``shard`` on the transport as a resident engine behind
        the coordinator's own :class:`ShardEndpoint`, which enqueues and
        drops pre-epoch stragglers (a partitioned channel can hold a
        message past a recovery barrier; the manager reconciled its
        effects from the store)."""
        retired = self._engines.get(shard.index)
        engine = self._engines[shard.index] = _ShardHost(self, shard)
        if retired is not None:
            # A replacement continues its predecessor's count; what the
            # predecessor parked dies with it.
            engine.worker.stragglers_dropped = (
                retired.worker.stragglers_dropped
            )
            retired.reset()
        self.transport.register(shard.name, engine.handle)

    def _on_manager_message(self, src: str, kind: str, payload: Any) -> None:
        if kind == "heartbeat":
            self._manager_heartbeat(payload.server)

    # -- timers -------------------------------------------------------------

    def _region(self, name: str) -> int:
        """The region of server ``name``; region 0 without geo."""
        return self.topology.region_of(name) if self._geo else 0

    def _live_gatekeepers(self) -> List[Gatekeeper]:
        return [
            gk for gk in self.gatekeepers if gk.name not in self._crashed
        ]

    def _start_timers(self) -> None:
        for gk in self.gatekeepers:
            self.simulator.schedule(
                self.heartbeat_period, self._heartbeat_tick, gk.name
            )
        for shard in self.shards:
            self.simulator.schedule(
                self.heartbeat_period, self._heartbeat_tick, shard.name
            )
        self.simulator.schedule(self.gc_period, self._gc_tick)
        self.simulator.schedule(
            3 * self.heartbeat_period, self._detector_tick
        )
        if self.fault_plan is not None:
            for crash in self.fault_plan.crashes:
                target = (
                    self.crash_gatekeeper
                    if crash.kind == GATEKEEPER
                    else self.crash_shard
                )
                self.simulator.schedule_at(crash.at, target, crash.index)
        if self.tau_controller is not None:
            self._window_base = (0, 0, 0)
            self.simulator.schedule(self.adapt_window, self._adapt_tick)

    def _adapt_tick(self) -> None:
        """One feedback-control window of the adaptive τ (section 3.5):
        the controller's τ is the announce cadence."""
        oracle_now = self.oracle_messages()
        announce_now = self.announce_messages()
        committed_now = self.committed
        base_oracle, base_announce, base_committed = self._window_base
        self.announce_every = int(self.tau_controller.observe(
            oracle_now - base_oracle,
            announce_now - base_announce,
            committed_now - base_committed,
        ))
        self._window_base = (oracle_now, announce_now, committed_now)
        self.simulator.schedule(self.adapt_window, self._adapt_tick)

    def _announce(self) -> None:
        """How an announce round travels on simulated time: one
        ``announce`` message from every live gatekeeper to every live
        peer, covering every commit attempted so far.  Geo: each carries
        its sender's latest deadline, the Lamport carrier that keeps
        deadlines increasing along happens-before edges (every
        vector-clock edge is announce-mediated here)."""
        live = self._live_gatekeepers()
        for gk in live:
            announce = AnnounceMessage(gk.index, gk.make_announce())
            deadline = (
                gk.deadline_stamper.last
                if gk.deadline_stamper is not None
                else None
            )
            for peer in live:
                if peer is not gk:
                    self.transport.send(
                        gk.name, peer.name, "announce",
                        (announce, gk.clock.epoch, deadline),
                    )
        self._announced_attempt = self.changes.attempts

    def _deliver_announce(
        self, peer_index: int, epoch: int, vector, deadline=None
    ) -> None:
        """Fold an announce at its destination, re-fetched by index.

        The receiver may have been replaced while the message was in
        flight; announces are epoch-tagged so a pre-failover straggler is
        dropped instead of folded into the replacement's restarted clock
        (which would corrupt it — epochs restart the counters at zero).
        """
        peer = self.gatekeepers[peer_index]
        if peer.name in self._crashed:
            return
        if peer.clock.epoch != epoch:
            return  # cross-epoch straggler
        peer.receive_announce(vector)
        if peer.deadline_stamper is not None:
            peer.deadline_stamper.observe(deadline)

    # -- the heartbeat round (section 4.2) --------------------------------

    def _send_nops(
        self, stamper: Optional[Gatekeeper] = None
    ) -> Optional[VectorTimestamp]:
        """How a heartbeat round travels on simulated time: one chain
        per region (:meth:`_chain_nops`).  The stamper folds its
        region's last NOP before it stamps, so the round continues the
        previous one, and its region chains from the stamp at once.
        Every other region gets the stamp over the network, one message
        to its first live gatekeeper.  With no stamper, every region
        chains from its last NOP."""
        home = stamp = None
        if stamper is not None:
            home = self._region(stamper.name)
            stamper.follow(self._last_nop.get(home))
            stamp = stamper.issue_timestamp()
        heads: Dict[int, Gatekeeper] = {}
        for gk in self._live_gatekeepers():
            heads.setdefault(self._region(gk.name), gk)
        for region, head in heads.items():
            if stamp is None or region == home:
                self._chain_nops(head.index, stamp)
            else:
                self.transport.send(
                    stamper.name, head.name, "nop-round", stamp
                )
        return stamp

    def _chain_nops(self, head: int, link: Optional[VectorTimestamp]):
        """One NOP from each live gatekeeper of gatekeeper ``head``'s
        region to every shard, each made after the previous link: the
        first after ``link`` and the region's last NOP.  ``link``'s
        deadline is observed first: the Lamport receive of a stamp
        from another region."""
        gk = self.gatekeepers[head]
        if gk.name in self._crashed:
            return
        if link is not None and gk.deadline_stamper is not None:
            gk.deadline_stamper.observe(link.deadline)
        region = self._region(gk.name)
        for member in self._live_gatekeepers():
            if self._region(member.name) == region:
                member.follow(self._last_nop.get(region))
                link = self._last_nop[region] = member.make_nop(after=link)
                nop = QueuedTransaction(link)
                for shard_index in self._live_shards():
                    self._enqueue(member.index, shard_index, nop)

    def _heartbeat_tick(self, name: str) -> None:
        if name in self._crashed:
            return  # the silence is what the detector listens for
        self.transport.send(
            name, "manager", "heartbeat",
            Heartbeat(name, self.manager.epoch, self.simulator.now),
        )
        self.simulator.schedule(
            self.heartbeat_period, self._heartbeat_tick, name
        )

    def _manager_heartbeat(self, name: str) -> None:
        if name in self._crashed:
            return  # the sender died with this beat in flight
        self.manager.heartbeat(name, self.simulator.now)

    def _detector_tick(self) -> None:
        """The cluster manager's failure detector (section 4.3)."""
        for name in self.manager.detect_failures(self.simulator.now):
            if name in self._crashed:
                self._recover(name)
        self.simulator.schedule(
            3 * self.heartbeat_period, self._detector_tick
        )

    def _gc_tick(self) -> None:
        """Section 4.5 garbage collection, on a timer.

        The watermark is the oldest in-flight program, or — when idle — a
        clock snapshot; events and versions strictly below it can never
        be read again.  Without this, the oracle's event DAG would grow
        with every concurrent pair it decided for the run's lifetime.
        The tick ends with one heartbeat round from a live gatekeeper, as
        a coordinator's drain does: writes no read followed still apply,
        and the read stamp retires (a reuse would ask the oracle about
        collected events).
        """
        watermark = self.watermarks.watermark(
            self.gatekeepers[0].current_watermark()
        )
        # Announce the watermark on the trace stream *before* collecting:
        # the online checker is a synchronous sink, so it settles and
        # prunes its windows while the decisions below the watermark are
        # still queryable (they vanish in collect_below right after).
        self.tracer.emit(None, "gc.watermark", node="gc", ts=watermark)
        # Oracle and store GC only: the oracle's uses pure vector-clock
        # comparison, so the (non-unique) watermark cannot mint new
        # oracle decisions.  Graph GC goes through refinable comparison
        # and needs a real stamped watermark; callers run it explicitly
        # when they care.
        self._collect_oracle_and_store(watermark)
        live = self._live_gatekeepers()
        if live:
            self._make_shards_ready(None, live[0])
        self.simulator.schedule(self.gc_period, self._gc_tick)

    # -- failure injection (section 4.3, live) ---------------------------

    def crash_gatekeeper(self, index: int) -> None:
        """Silently kill one gatekeeper; its heartbeats stop, the
        detector notices, and recovery runs — all on simulated time."""
        self._crashed.add(self.gatekeepers[index].name)

    def crash_shard(self, index: int) -> None:
        self._crashed.add(self.shards[index].name)

    def _recovery_stamp(self) -> VectorTimestamp:
        """The timestamp recovery reloads and reconciliations carry.

        In geo mode its deadline is pinned to *now*: every stamp issued
        after the barrier carries a deadline at least one region reach
        in the future, so the deadline fast path deterministically
        orders recovered state before every post-recovery query — the
        same guarantee ``prefer=BEFORE`` gives the oracle path.
        """
        ts = self.manager.gatekeepers[0].issue_timestamp()
        if self._geo:
            ts = dc_replace(ts, deadline=self.simulator.now)
        return ts

    def _recover(self, name: str) -> None:
        if name.startswith("gk"):
            index = int(name[2:])
            replacement = self.manager.recover_gatekeeper(
                index, recovery_ts_factory=self._recovery_stamp
            )
            replacement.tracer = self.tracer
            if self._geo:
                # The region's stamper outlives the crashed gatekeeper,
                # so the replacement continues above every deadline the
                # region ever issued or observed.
                replacement.deadline_stamper = self._deadline_stampers[
                    self.topology.region_of(name)
                ]
            self.gatekeepers[index] = replacement
        else:
            index = int(name[5:])
            replacement = self.manager.recover_shard(
                index, recovery_ts_factory=self._recovery_stamp
            )
            replacement.tracer = self.tracer
            if self._geo:
                replacement.ordering.skew_bound = self.skew_bound
            self.shards[index] = replacement
            self._register_shard(replacement)
        # The barrier moved every shard into the manager's new epoch, so
        # old-epoch messages still in flight are dropped at the
        # endpoints.  Channel sequence numbers keep counting across it —
        # each (gatekeeper, shard) stream stays FIFO and monotone, and
        # shards re-baseline their expected numbers after the epoch
        # switch — so the sender side is left untouched.
        self._crashed.discard(name)
        self.recoveries += 1
        # In-flight node programs die with the epoch: their snapshots
        # predate the recovery timestamp and would miss reloaded state.
        # Every engine forgets them, the read stamp and cache are retired
        # (as at a coordinator's epoch reset), and each program is
        # stamped again (section 4.3) under a fresh query id, so a
        # pre-recovery frame can never be taken for the relaunch.
        for engine in self._engines.values():
            engine.reset()
        self._advanced_to = self._read_stamp = None
        if self.program_cache is not None:
            self.program_cache.clear()
        live = self._live_gatekeepers()
        if live:
            stamped, self._stamped = self._stamped, {}
            for query_id, entry in stamped.items():
                self.watermarks.finish(query_id)
                self._launch_program(live[query_id % len(live)], entry)
        self.manager.heartbeat(name, self.simulator.now)
        self.simulator.schedule(
            self.heartbeat_period, self._heartbeat_tick, name
        )

    # -- client operations ---------------------------------------------

    def submit_transaction(
        self,
        operations: List[Operation],
        callback: Optional[Callable[[bool, Any], None]] = None,
    ) -> int:
        """Submit buffered operations from a client at current sim time.

        Returns the trace id assigned to this submission, under which
        every hop's spans (stamp, store commit, shard enqueue/apply,
        ordering decisions) can be reassembled.
        """
        gk_index = self._pick_gatekeeper()
        trace_id = self.tracer.next_trace_id()
        self.tracer.emit(
            trace_id, "client.submit", node="client", gk=gk_index
        )
        self.transport.send(
            "client",
            self._gk_names[gk_index],
            "tx-submit",
            (tuple(operations), callback, trace_id, self.simulator.now),
        )
        return trace_id

    def _gatekeeper_commit(
        self,
        gk_index: int,
        operations: Tuple[Operation, ...],
        callback,
        trace_id: Optional[int],
        submitted: float,
        charged: bool = False,
    ) -> None:
        gk = self.gatekeepers[gk_index]
        if self.costs is not None and not charged:
            # Queue for the gatekeeper's service time, then for one node
            # of the backing store (section 4.2: the store is its own
            # cluster), then run the commit: the gatekeeper serves its
            # next request while this one commits.
            done = self._gk_servers[gk_index].occupy(
                self.costs.gatekeeper_service
            )
            self.simulator.schedule_at(
                done,
                self._store_commit,
                gk_index, operations, callback, trace_id, submitted,
            )
            return
        if gk.name in self._crashed:
            # The request dies with the server; the client re-submits
            # with a fresh stamp after recovery (section 4.3).
            self.aborted += 1
            if callback is not None:
                callback(False, None)
            return
        # The coordinator's write path, run at the gatekeeper's event:
        # validate against the store, place, commit, forward.
        tx = Transaction(self, gk_index)
        tx.trace_id = trace_id
        try:
            for op in operations:
                tx.record(op)
            ts = tx.commit()
        except TransactionAborted as exc:
            self.aborted += 1
            if tx.is_open:
                tx.abort()
            if callback is not None:
                callback(False, exc)
            return
        self.committed += 1
        # Tiga commit rule: a deadline-stamped transaction is not acked
        # to the client until its deadline passes, so the deadline order
        # can never contradict client-observed real time — the ack delay
        # is the latency cost the geo benchmark measures against the
        # oracle round trips it saves.
        deadline = getattr(ts, "deadline", None)
        if deadline is not None and deadline > self.simulator.now:
            self.simulator.schedule_at(
                deadline, self._ack_commit, ts, callback, submitted
            )
        else:
            self._ack_commit(ts, callback, submitted)

    def _store_commit(self, *request) -> None:
        """Occupy the store bank's next node, round robin, for one
        commit; then run it."""
        store = self._store_servers[
            next(self._next_store) % len(self._store_servers)
        ]
        done = store.occupy(self.costs.store_commit_service)
        self.simulator.schedule_at(
            done, self._gatekeeper_commit, *request, True
        )

    def _ack_commit(self, ts, callback, submitted: float) -> None:
        self.latency_tx.observe(self.simulator.now - submitted)
        if callback is not None:
            callback(True, ts)

    def submit_program(
        self,
        program: NodeProgram,
        start: StartSpec,
        params: Any = None,
        callback: Optional[Callable[[ProgramResult], None]] = None,
        at: Optional[VectorTimestamp] = None,
        use_cache: bool = False,
        cache_key: Optional[Hashable] = None,
    ) -> int:
        """Submit a node program as ``run_program`` takes it: a cache
        hit completes here; otherwise a gatekeeper stamps it, and it
        waits at the start vertex's shard until ready, then runs shard
        to shard.  Returns the trace id (also the submission's token).
        ``callback`` gets the result, or None when the request died with
        its gatekeeper; a program the shards cannot rebuild raises
        :class:`ProgramError` here, one that fails there out of
        :meth:`run`."""
        shipped = self._wire_program(program)
        frontier = self._frontier(start, params)
        trace_id = self.tracer.next_trace_id()
        key, result = self._lookup_program(
            program, frontier, at, use_cache, cache_key
        )
        # As in run_program, only a miss moves the round robin.
        gk_index = None if result is not None else self._pick_gatekeeper()
        self.tracer.emit(
            trace_id, "program.submit", node="client",
            program=program.name, gk=gk_index,
        )
        if result is not None:
            query_id = next(self._query_counter)
            self._finish_program(query_id, trace_id, key, result, None)
            self.latency_program.observe(0.0)
            if callback is not None:
                self.simulator.schedule(0.0, callback, result)
            return trace_id
        self._submitted[trace_id] = _SimProgram(
            program, shipped, frontier, at, key, callback,
            self.simulator.now, trace_id,
        )
        self.transport.send(
            "client", self._gk_names[gk_index], "prog-submit", trace_id
        )
        return trace_id

    def _gatekeeper_stamp(
        self, gk_index: int, token: int, charged: bool = False
    ) -> None:
        if token not in self._submitted:
            return  # a duplicated submission: already stamped
        # Re-fetched by index: the gatekeeper bound at submit time may
        # have crashed (and been replaced) while the message was in
        # flight; stamping from the stale object would issue a
        # dead-epoch timestamp.
        gk = self.gatekeepers[gk_index]
        if gk.name in self._crashed:
            # The request dies with the server (section 4.3); the client
            # still hears, or the program leaks as forever-outstanding.
            entry = self._submitted.pop(token)
            if entry.callback is not None:
                entry.callback(None)
            return
        if self.costs is not None and not charged:
            done = self._gk_servers[gk_index].occupy(
                self.costs.gatekeeper_service
            )
            self.simulator.schedule_at(
                done, self._gatekeeper_stamp, gk_index, token, True
            )
            return
        self._launch_program(gk, self._submitted.pop(token))

    def _launch_program(self, gk, entry: _SimProgram) -> None:
        """Stamp ``entry`` at ``gk`` by the shared read decision and send
        ``program_start`` to the coordinating shard.  Crashes are
        silent, so the gatekeeper takes every shard for live: a request
        to a dead one vanishes and the recovery relaunches it."""
        query_id = next(self._query_counter)
        ts = self._stamp_program(
            entry.program, entry.frontier, entry.at, entry.key is not None,
            gk, entry.trace_id, query_id,
        )
        entry.attempt = self.changes.attempts
        self._stamped[query_id] = entry
        coordinator, ps = self._program_start(
            entry.shipped, entry.frontier, ts, query_id,
            entry.trace_id, self._all_shards,
        )
        self.transport.send(
            gk.name, self._shard_names[coordinator], "program_start", ps
        )

    def _on_program_reply(self, src: str, kind: str, payload: Any) -> None:
        query_id, reply = payload
        entry = self._stamped.pop(query_id, None)
        if entry is None:
            return  # a pre-recovery launch; its relaunch has a fresh id
        try:
            result = self._program_result(reply)
        except ProgramError:
            self.watermarks.finish(query_id)
            raise
        self.latency_program.observe(self.simulator.now - entry.submitted)
        self._finish_program(
            query_id, entry.trace_id, entry.key, result, entry.attempt
        )
        if entry.callback is not None:
            entry.callback(result)

    def submit(
        self, spec: tuple, callback: Callable[[bool, Any], None]
    ) -> None:
        """One closed-loop op (:class:`~repro.sim.workload.SimClients`):
        ``("tx", operations)`` commits, ``callback(ok, timestamp or
        abort)``; ``("prog", program, start, params)`` runs a node
        program, ``callback(ok, result)``, not ok with None when it died
        with its gatekeeper."""
        if spec[0] == "tx":
            self.submit_transaction(list(spec[1]), callback=callback)
        elif spec[0] == "prog":
            _, program, start, params = spec
            self.submit_program(
                program, start, params,
                callback=lambda r: callback(r is not None, r),
            )
        else:
            raise ValueError(f"unknown op spec {spec[0]!r}")

    # -- driving -------------------------------------------------------

    #: The step at which drivers check whether what they wait for has
    #: happened.
    timer_period = 200 * USEC

    def run(self, duration: float) -> None:
        """Advance simulated time by ``duration`` seconds."""
        self.simulator.run(until=self.simulator.now + duration)

    def run_until_quiet(self, max_extra: float = 1.0) -> None:
        """Run until every submitted program has completed (bounded by
        ``max_extra`` simulated seconds)."""
        deadline = self.simulator.now + max_extra
        step = self.timer_period
        while (
            (self._submitted or self._stamped)
            and self.simulator.now < deadline
        ):
            self.simulator.run(until=self.simulator.now + step)

    # -- introspection --------------------------------------------------

    def _sim_metrics(self) -> Dict[str, float]:
        return {
            "sim.committed": self.committed,
            "sim.aborted": self.aborted,
            "sim.recoveries": self.recoveries,
            "sim.stragglers_dropped": self.stragglers_dropped,
            "sim.announce_every": self.announce_every,
        }

    @property
    def stragglers_dropped(self) -> int:
        """Pre-epoch deliveries the shard endpoints refused."""
        return sum(
            e.worker.stragglers_dropped for e in self._engines.values()
        )

    def announce_messages(self) -> int:
        return self.network.stats.count("announce")

    def nop_messages(self) -> int:
        return self.network.stats.count("nop")

    def oracle_messages(self) -> int:
        """Client-visible oracle request count, *all* regions included.

        The oracle counts one increment per request it serves — but a
        geo deployment's region clients answer already-ordered pairs
        without sending it a request, so the oracle's total alone
        undercounts coordination traffic by exactly the regions'
        ``local_queries``.  The τ controller fed the oracle's stats alone
        under-measures oracle pressure and pushes τ the wrong way (see
        the regression test); aggregate before observe().
        """
        total = self.oracle.stats.messages
        for rstats in self.parts.region_stats:
            total += rstats.local_queries
        return total
