"""Deterministic fault injection for the simulated deployment.

Weaver's correctness story (sections 4.3-4.4) rests on surviving server
failures via epoch bumps while refinable timestamps keep ordering
strict-serializable.  The plain :class:`~repro.sim.network.Network`
delivers every message perfectly, so none of that machinery is exercised
by default.  This module supplies the chaos layer:

* :class:`MessageFault` — a probabilistic rule (drop / duplicate / delay)
  over matching messages, selected by kind, endpoint, time window, or an
  arbitrary per-channel predicate;
* :class:`Partition` — a bidirectional src <-> dst partition over a time
  window;
* :class:`CrashSpec` — a scheduled silent crash of one gatekeeper or
  shard server (its heartbeats stop; the failure detector and epoch-bump
  recovery do the rest, on simulated time);
* :class:`FaultPlan` — the declarative bundle of all of the above plus a
  seed, built fluently (``plan.drop(...).partition(...).crash_shard(...)``);
* :class:`FaultInjector` — applies a plan with a private seeded RNG that
  is consumed in network-send order, so a given (plan, workload) pair
  yields a bit-for-bit reproducible run.

Fault semantics respect the transport contract the protocol assumes.
Weaver requires FIFO, reliable channels between gatekeepers and shards
(section 4.2, sequence numbers); the real system gets them from TCP,
which turns packet loss into retransmission delay.  The injector models
that: a *drop* on a channel-sequenced kind becomes an extra retransmit
delay, and a *partition* defers delivery until the partition heals.
Kinds listed in :data:`LOSSY_KINDS` (periodic announces and heartbeats,
which the protocol genuinely tolerates losing) are truly dropped.
Duplicates are delivered twice — receivers must deduplicate, which the
sequence-number check on shard queues and the idempotent announce fold
both do.  The resident engine's frames (``program_start``, ``forward``,
``round_go``, ``round_report``, ``prog-reply``) are the exception: the
engine is written for a socket's byte stream, so
:class:`~repro.cluster.transport.SimTransport` delivers them exactly
once and drops a duplicate's second copy at delivery.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from .clock import USEC

#: Fault actions understood by :class:`MessageFault`.
DROP = "drop"
DUPLICATE = "duplicate"
DELAY = "delay"
_ACTIONS = (DROP, DUPLICATE, DELAY)

#: Message kinds a true drop cannot hurt: both are periodic and the
#: protocol tolerates missing any single one (a later announce carries a
#: larger vector; a missed heartbeat only nudges the failure detector).
LOSSY_KINDS = frozenset({"announce", "heartbeat"})

#: Extra one-way delay charged when a reliable-channel message is
#: "dropped" (i.e. retransmitted by the transport).
DEFAULT_RETRANSMIT_DELAY = 500 * USEC

GATEKEEPER = "gatekeeper"
SHARD = "shard"


@dataclass(frozen=True)
class MessageFault:
    """One probabilistic fault rule over matching messages.

    A message matches when the simulated time lies in ``[start, end)``,
    the message ``kind`` is in ``kinds`` (None = any), ``src``/``dst``
    equal the given names (None = any), and ``predicate(src, dst, kind,
    now)`` — the per-channel hook — returns True (None = always).
    """

    action: str
    rate: float = 1.0
    extra_delay: float = DEFAULT_RETRANSMIT_DELAY
    kinds: Optional[frozenset] = None
    src: Optional[str] = None
    dst: Optional[str] = None
    start: float = 0.0
    end: float = math.inf
    predicate: Optional[Callable[[str, str, str, float], bool]] = None

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("fault rate must be in (0, 1]")
        if self.extra_delay < 0:
            raise ValueError("extra_delay must be non-negative")

    def matches(self, src: str, dst: str, kind: str, now: float) -> bool:
        if not self.start <= now < self.end:
            return False
        if self.kinds is not None and kind not in self.kinds:
            return False
        if self.src is not None and src != self.src:
            return False
        if self.dst is not None and dst != self.dst:
            return False
        if self.predicate is not None and not self.predicate(
            src, dst, kind, now
        ):
            return False
        return True


@dataclass(frozen=True)
class Partition:
    """A bidirectional network partition between two endpoints.

    While active, lossy kinds between the endpoints vanish; reliable
    kinds are held by the transport and delivered once the partition
    heals (``end`` plus one retransmit delay), preserving channel FIFO.
    """

    a: str
    b: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("partition must end after it starts")

    def covers(self, src: str, dst: str, now: float) -> bool:
        if not self.start <= now < self.end:
            return False
        return (src == self.a and dst == self.b) or (
            src == self.b and dst == self.a
        )


@dataclass(frozen=True)
class CrashSpec:
    """A scheduled silent crash of one server.

    ``kind`` is :data:`GATEKEEPER` or :data:`SHARD`; ``at`` is the
    simulated time of death.  Recovery is *not* scheduled here — the
    cluster manager's failure detector notices the heartbeat silence and
    runs the section 4.3 recovery on its own.
    """

    kind: str
    index: int
    at: float

    def __post_init__(self) -> None:
        if self.kind not in (GATEKEEPER, SHARD):
            raise ValueError(f"unknown server kind {self.kind!r}")
        if self.index < 0:
            raise ValueError("server index must be non-negative")
        if self.at < 0:
            raise ValueError("crash time must be non-negative")


@dataclass(frozen=True)
class MessageFate:
    """The injector's decision for one message.

    ``copies`` is 0 (lost), 1 (normal), or 2 (duplicated);
    ``extra_delay`` is added to the channel latency; ``faults`` names the
    fault kinds that fired, for the network's per-kind counters.
    """

    extra_delay: float = 0.0
    copies: int = 1
    faults: Tuple[str, ...] = ()


_CLEAN = MessageFate()


class FaultPlan:
    """A declarative, seeded chaos schedule.

    Collects message-fault rules, partitions, and crash events.  The
    builder methods mutate and return ``self`` so plans read as one
    fluent expression::

        plan = (FaultPlan(seed=7)
                .drop(0.05, kinds=frozenset({"tx", "nop"}))
                .partition("gk0", "shard1", start=0.01, end=0.02)
                .crash_shard(1, at=0.03))
    """

    def __init__(
        self,
        seed: int = 0,
        messages: Tuple[MessageFault, ...] = (),
        partitions: Tuple[Partition, ...] = (),
        crashes: Tuple[CrashSpec, ...] = (),
        retransmit_delay: float = DEFAULT_RETRANSMIT_DELAY,
    ):
        if retransmit_delay < 0:
            raise ValueError("retransmit_delay must be non-negative")
        self.seed = seed
        self.messages: List[MessageFault] = list(messages)
        self.partitions: List[Partition] = list(partitions)
        self.crashes: List[CrashSpec] = list(crashes)
        self.retransmit_delay = retransmit_delay

    # -- fluent builders ------------------------------------------------

    def fault(self, rule: MessageFault) -> "FaultPlan":
        self.messages.append(rule)
        return self

    def drop(self, rate: float = 1.0, **match) -> "FaultPlan":
        return self.fault(MessageFault(DROP, rate=rate, **match))

    def duplicate(self, rate: float = 1.0, **match) -> "FaultPlan":
        return self.fault(MessageFault(DUPLICATE, rate=rate, **match))

    def delay(
        self,
        rate: float = 1.0,
        extra_delay: float = DEFAULT_RETRANSMIT_DELAY,
        **match,
    ) -> "FaultPlan":
        return self.fault(
            MessageFault(DELAY, rate=rate, extra_delay=extra_delay, **match)
        )

    def partition(
        self, a: str, b: str, start: float, end: float
    ) -> "FaultPlan":
        self.partitions.append(Partition(a, b, start, end))
        return self

    def crash_gatekeeper(self, index: int, at: float) -> "FaultPlan":
        self.crashes.append(CrashSpec(GATEKEEPER, index, at))
        return self

    def crash_shard(self, index: int, at: float) -> "FaultPlan":
        self.crashes.append(CrashSpec(SHARD, index, at))
        return self


class FaultInjector:
    """Applies a :class:`FaultPlan` deterministically.

    The RNG is private and consumed in network-send order; because the
    simulator itself is deterministic, a given (plan, workload, seed)
    triple produces the identical fault sequence on every run — the
    property the chaos smoke tests assert.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = random.Random(plan.seed)

    def fate(self, src: str, dst: str, kind: str, now: float) -> MessageFate:
        """Decide what happens to one message sent right now."""
        extra = 0.0
        copies = 1
        faults: List[str] = []
        for part in self.plan.partitions:
            if not part.covers(src, dst, now):
                continue
            faults.append("partition")
            if kind in LOSSY_KINDS:
                copies = 0
            else:
                # Held by the transport until the partition heals.
                extra = max(
                    extra, (part.end - now) + self.plan.retransmit_delay
                )
        for rule in self.plan.messages:
            if not rule.matches(src, dst, kind, now):
                continue
            # Consume the RNG for every probabilistic rule that matches,
            # whether or not it fires: determinism depends only on the
            # message sequence, not on which faults happened to fire.
            if rule.rate < 1.0 and self._rng.random() >= rule.rate:
                continue
            if rule.action == DROP:
                faults.append(DROP)
                if kind in LOSSY_KINDS:
                    copies = 0
                else:
                    extra += rule.extra_delay
            elif rule.action == DUPLICATE:
                faults.append(DUPLICATE)
                if copies > 0:
                    copies = 2
            else:
                faults.append(DELAY)
                extra += rule.extra_delay
        if not faults:
            return _CLEAN
        if copies == 0:
            extra = 0.0
        return MessageFate(extra, copies, tuple(faults))
