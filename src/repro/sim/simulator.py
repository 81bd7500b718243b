"""A deterministic discrete-event simulator.

The simulator owns a :class:`~repro.sim.clock.SimClock` and a priority
queue of pending events.  Components schedule callbacks at future
simulated times; :meth:`Simulator.run` pops events in time order (FIFO
among ties, via a monotonically increasing sequence number) and invokes
them.  Nothing here is Weaver-specific; the cluster, the baselines, and
the workload drivers all run on the same engine so their simulated-time
results are directly comparable.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from .clock import SimClock


class Event:
    """A scheduled callback; cancellable."""

    __slots__ = ("when", "seq", "fn", "args", "cancelled")

    def __init__(self, when: float, seq: int, fn: Callable, args: tuple):
        self.when = when
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Simulator:
    """The event loop for one simulated world."""

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock or SimClock()
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self.events_run = 0

    @property
    def now(self) -> float:
        return self.clock.now

    def pending(self) -> int:
        return sum(1 for _, _, e in self._queue if not e.cancelled)

    def schedule_at(self, when: float, fn: Callable, *args) -> Event:
        """Run ``fn(*args)`` at simulated time ``when``."""
        if when < self.clock.now:
            raise ValueError(
                f"cannot schedule in the past: {when} < {self.clock.now}"
            )
        event = Event(when, next(self._seq), fn, args)
        heapq.heappush(self._queue, (when, event.seq, event))
        return event

    def schedule(self, delay: float, fn: Callable, *args) -> Event:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError("negative delay")
        return self.schedule_at(self.clock.now + delay, fn, *args)

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        while self._queue:
            when, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.clock.advance_to(when)
            self.events_run += 1
            event.fn(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 10**9) -> None:
        """Drain the queue, optionally stopping at simulated time ``until``.

        When ``until`` is given, events scheduled later stay queued and the
        clock is advanced exactly to ``until`` on return.
        """
        remaining = max_events
        while self._queue and remaining > 0:
            when, _, event = self._queue[0]
            if until is not None and when > until:
                break
            heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.clock.advance_to(when)
            self.events_run += 1
            event.fn(*event.args)
            remaining -= 1
        if until is not None and self.clock.now < until:
            self.clock.advance_to(until)


class Server:
    """A serially-busy resource with a service queue.

    Models one server (a gatekeeper, a shard, a lock manager...) that can
    do one unit of work at a time.  ``occupy(cost)`` reserves the next
    available slot of ``cost`` simulated seconds and returns the completion
    time; callers then schedule their continuation at that time.  This
    captures queueing delay — the mechanism behind every throughput result
    in the evaluation — without simulating instruction execution.
    """

    def __init__(self, simulator: Simulator, name: str = "server"):
        self.simulator = simulator
        self.name = name
        self.busy_until = 0.0
        self.busy_time = 0.0
        self.jobs = 0

    def occupy(self, cost: float, at: Optional[float] = None) -> float:
        """Reserve ``cost`` seconds of this server from ``at`` (default:
        now), or from when it frees up if later; return completion time.
        A cost model that runs an operation ahead of the clock passes the
        time the operation reaches this server as ``at``."""
        if cost < 0:
            raise ValueError("negative cost")
        start = max(self.simulator.now if at is None else at, self.busy_until)
        finish = start + cost
        self.busy_until = finish
        self.busy_time += cost
        self.jobs += 1
        return finish

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of time busy over [0, horizon or now]."""
        horizon = horizon if horizon is not None else self.simulator.now
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)
