"""A simulated message-passing network with FIFO channels.

Weaver relies on FIFO channels between each gatekeeper-shard pair
(section 4.2, maintained with sequence numbers in the real system).  The
:class:`Network` here provides that guarantee directly: deliveries on one
(src, dst) channel never reorder, even when latency jitter would have a
later message overtake an earlier one.  Message counts are kept per
message kind, which is how the Fig 14 experiment measures announce and
oracle traffic.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Optional, Sequence, Tuple

from .clock import USEC
from .simulator import Simulator

DEFAULT_LATENCY = 100 * USEC  # one-way LAN hop, gigabit-era


class RegionTopology:
    """Asymmetric per-(src, dst)-region one-way latency/jitter matrix.

    A geo deployment places each server in a region; messages between two
    servers are charged the latency of the (src region, dst region) edge
    instead of the network's single global latency.  The matrix need not
    be symmetric (transit routing rarely is) but must be square, fully
    populated, and non-negative.  Servers not explicitly assigned live in
    region 0, so a topology with every edge equal to the old global
    latency reproduces single-region behavior exactly.
    """

    def __init__(
        self,
        latency: Sequence[Sequence[float]],
        jitter: Optional[Sequence[Sequence[float]]] = None,
    ):
        self._latency = tuple(tuple(float(c) for c in row) for row in latency)
        n = len(self._latency)
        if n == 0:
            raise ValueError("topology needs at least one region")
        for row in self._latency:
            if len(row) != n:
                raise ValueError(
                    f"latency matrix must be square: row of length "
                    f"{len(row)} in a {n}-region topology"
                )
            for cell in row:
                if cell < 0:
                    raise ValueError("latencies must be non-negative")
        if jitter is None:
            self._jitter = tuple((0.0,) * n for _ in range(n))
        else:
            self._jitter = tuple(
                tuple(float(c) for c in row) for row in jitter
            )
            if len(self._jitter) != n or any(
                len(row) != n for row in self._jitter
            ):
                raise ValueError("jitter matrix shape must match latency")
            for row in self._jitter:
                for cell in row:
                    if cell < 0:
                        raise ValueError("jitter must be non-negative")
        self._region_of: Dict[str, int] = {}

    @property
    def num_regions(self) -> int:
        return len(self._latency)

    def assign(self, name: str, region: int) -> None:
        """Place server ``name`` in ``region``."""
        if not 0 <= region < self.num_regions:
            raise ValueError(
                f"region {region} out of range for "
                f"{self.num_regions}-region topology"
            )
        self._region_of[name] = region

    def region_of(self, name: str) -> int:
        """The region a server lives in (region 0 when unassigned)."""
        return self._region_of.get(name, 0)

    @property
    def assignments(self) -> Dict[str, int]:
        """A copy of the explicit server-to-region placements."""
        return dict(self._region_of)

    def edge(self, src_region: int, dst_region: int) -> Tuple[float, float]:
        """(latency, jitter) of the one-way (src, dst) region edge."""
        return (
            self._latency[src_region][dst_region],
            self._jitter[src_region][dst_region],
        )

    def one_way(self, src_region: int, dst_region: int) -> float:
        return self._latency[src_region][dst_region]

    def reach(self, src_region: int) -> float:
        """Worst-case one-way delay from ``src_region`` to any region.

        This is the horizon a deadline stamp must clear: a message sent
        now from ``src_region`` has arrived everywhere by ``now +
        reach(src_region)`` (latency plus full jitter on every edge).
        """
        return max(
            lat + jit
            for lat, jit in zip(
                self._latency[src_region], self._jitter[src_region]
            )
        )

    def max_reach(self) -> float:
        """Worst-case one-way delay over every region pair."""
        return max(self.reach(r) for r in range(self.num_regions))


class NetworkStats:
    """Counters of messages sent, by kind, and of injected faults."""

    def __init__(self) -> None:
        self.sent: Dict[str, int] = defaultdict(int)
        self.total = 0
        # Injected faults by fault kind: drop / duplicate / delay /
        # partition.  A "drop" on a reliable channel still counts here
        # even though it is delivered after a retransmit delay.
        self.faults: Dict[str, int] = defaultdict(int)
        # Per-(src region, kind) counts — populated only when the network
        # has a RegionTopology, and read by region.<r>.announce_messages.
        self.region_sent: Dict[Tuple[int, str], int] = defaultdict(int)

    def record(self, kind: str) -> None:
        self.sent[kind] += 1
        self.total += 1

    def record_region(self, region: int, kind: str) -> None:
        self.region_sent[(region, kind)] += 1

    def region_count(self, region: int, kind: str) -> int:
        return self.region_sent.get((region, kind), 0)

    def record_fault(self, fault_kind: str) -> None:
        self.faults[fault_kind] += 1

    def count(self, kind: str) -> int:
        return self.sent.get(kind, 0)

    def fault_count(self, fault_kind: str) -> int:
        return self.faults.get(fault_kind, 0)

    def total_faults(self) -> int:
        return sum(self.faults.values())

    def metrics(self) -> Dict[str, int]:
        """The collector of ``network.*``: totals, and counts by message
        kind and by fault kind."""
        out = {
            "network.messages_total": self.total,
            "network.faults_total": self.total_faults(),
        }
        for kind, count in sorted(self.sent.items()):
            out[f"network.sent.{kind}"] = count
        for kind, count in sorted(self.faults.items()):
            out[f"network.faults.{kind}"] = count
        return out


class Network:
    """Latency-charging, FIFO-preserving message delivery."""

    def __init__(
        self,
        simulator: Simulator,
        latency: float = DEFAULT_LATENCY,
        jitter: float = 0.0,
        rng=None,
        fault_injector=None,
        topology: Optional[RegionTopology] = None,
    ):
        if latency < 0 or jitter < 0:
            raise ValueError("latency and jitter must be non-negative")
        self.simulator = simulator
        self.latency = latency
        self.jitter = jitter
        self._rng = rng
        # Optional chaos layer (sim.faults.FaultInjector): consulted for
        # every message's fate — extra delay, loss, or duplication.
        self.fault_injector = fault_injector
        # Optional geo layer: per-(src, dst)-region latency matrix.  When
        # absent the single global latency applies, bit-identical to the
        # pre-region behavior.
        self.topology = topology
        self.stats = NetworkStats()
        # Per-channel monotone delivery horizon and next sequence number.
        self._last_delivery: Dict[Tuple[str, str], float] = {}
        self._next_seqno: Dict[Tuple[str, str], int] = defaultdict(int)

    def _sample_latency(self, src: str, dst: str) -> float:
        if self.topology is not None:
            base, jit = self.topology.edge(
                self.topology.region_of(src), self.topology.region_of(dst)
            )
        else:
            base, jit = self.latency, self.jitter
        if jit and self._rng is not None:
            return base + self._rng.random() * jit
        return base

    def send(
        self,
        src: str,
        dst: str,
        handler: Callable,
        *args,
        kind: str = "message",
        latency: Optional[float] = None,
    ) -> int:
        """Deliver ``handler(*args)`` at ``dst`` after the channel latency.

        Returns the channel sequence number assigned to the message.  FIFO
        is enforced per (src, dst): a message is never delivered before one
        sent earlier on the same channel.
        """
        channel = (src, dst)
        seqno = self._next_seqno[channel]
        self._next_seqno[channel] += 1
        delay = (
            latency if latency is not None else self._sample_latency(src, dst)
        )
        copies = 1
        if self.fault_injector is not None:
            fate = self.fault_injector.fate(
                src, dst, kind, self.simulator.now
            )
            for fault_kind in fate.faults:
                self.stats.record_fault(fault_kind)
            delay += fate.extra_delay
            copies = fate.copies
        self.stats.record(kind)
        if self.topology is not None:
            self.stats.record_region(self.topology.region_of(src), kind)
        if copies <= 0:
            # Truly lost: the channel's delivery horizon is untouched, so
            # later messages are not held back by a vanished one.
            return seqno
        deliver_at = self.simulator.now + delay
        floor = self._last_delivery.get(channel, 0.0)
        if deliver_at < floor:
            deliver_at = floor
        self._last_delivery[channel] = deliver_at
        for _ in range(copies):
            self.simulator.schedule_at(deliver_at, handler, *args)
        return seqno
