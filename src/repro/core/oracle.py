"""The timeline oracle: reactive, fine-grained event ordering (section 3.4).

The oracle keeps a dependency graph whose vertices are *events* (one per
transaction or node program, identified by its unique vector timestamp) and
whose directed edges are happens-before commitments.  It answers two kinds
of requests (shard servers send only the second):

* ``query_order(a, b)`` — return a pre-established order, if one exists.
  Pre-established orders include explicit commitments, their transitive
  closure, and edges implied by the vector clocks themselves (the paper's
  example: having committed <0,1> < <1,0>, a query for (<0,1>, <2,0>) is
  answered from <0,1> < <1,0> < <2,0>).
* ``order(a, b, prefer)`` — return the established order or, if none
  exists, commit a new one.  Ordering decisions are irreversible and
  monotonic: once made they hold for every subsequent query from every
  shard.  The oracle refuses any request that would create a cycle.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import CycleError, OrderingError
from ..obs.collect import scalar_fields
from .vclock import Ordering, VectorTimestamp

EventId = Tuple[int, int, int]


class OracleStats:
    """Message, decision, and fast-path counters (Fig 14 reports these).

    One client request increments exactly one of ``queries`` /
    ``decisions`` / ``events_created``, so ``messages`` equals the
    client-visible request count — the quantity Fig 14 plots and the
    τ controller feeds on.  (An ``order`` request that finds the pair
    already established counts as a query, not a decision.)
    """

    def __init__(self) -> None:
        self.queries = 0
        self.decisions = 0
        self.events_created = 0
        self.events_collected = 0
        # Reachability fast-path counters: BFS nodes actually expanded,
        # and candidate events skipped by the skyline index without a
        # vector compare.
        self.bfs_expansions = 0
        self.bfs_pruned = 0

    @property
    def messages(self) -> int:
        """Total request messages the oracle served."""
        return self.queries + self.decisions + self.events_created


class EventDependencyGraph:
    """A DAG of events with reachability that honors vector-clock edges.

    Explicit edges are commitments made by :meth:`add_order`.  In addition,
    for any two registered events ``x`` and ``y`` with ``x`` vector-clock-
    before ``y``, an implicit edge ``x -> y`` exists.  Reachability (and
    therefore cycle detection) runs over the union of both edge sets, so a
    commitment can never contradict either an earlier commitment or the
    vector clocks.

    A decided pair is one explicit edge, and the graph is acyclic (a
    commitment is made only when neither event reaches the other, and
    :meth:`remove_event` bridges what it removes), so a re-asked pair is
    answered by an edge lookup in either direction, with no search.

    A *skyline index* keeps the search off the O(events) scan the naive
    union would need.  It holds the events with explicit out-edges,
    bucketed by (epoch, issuer) and sorted by the issuer's counter.  One
    gatekeeper's stamps within an epoch form a domination chain (each
    later stamp dominates every earlier one), so "the implied successors
    of ``current`` in this bucket" is a *suffix* of the bucket, found by
    binary search instead of a full scan.
    """

    def __init__(self, stats: Optional[OracleStats] = None) -> None:
        self.stats = stats if stats is not None else OracleStats()
        self._events: Dict[EventId, VectorTimestamp] = {}
        self._succ: Dict[EventId, Set[EventId]] = {}
        self._pred: Dict[EventId, Set[EventId]] = {}
        # Events with at least one explicit out-edge.  Reachability only
        # needs to expand *implied* (vector-clock) hops into these:
        # consecutive implied hops collapse into one (happens-before is
        # transitive), so an implied hop that is not the final step must
        # land on an event that continues explicitly.
        self._has_out: Set[EventId] = set()
        # Skyline index over _has_out: (epoch, issuer) -> sorted counters.
        self._out_index: Dict[Tuple[int, int], List[int]] = {}

    def __len__(self) -> int:
        return len(self._events)

    def __contains__(self, ts: VectorTimestamp) -> bool:
        return ts.id in self._events

    @property
    def events(self) -> Iterable[VectorTimestamp]:
        return self._events.values()

    def add_event(self, ts: VectorTimestamp) -> bool:
        """Register an event; returns False if it already existed."""
        if ts.id in self._events:
            return False
        self._events[ts.id] = ts
        self._succ[ts.id] = set()
        self._pred[ts.id] = set()
        return True

    def has_edge(self, a: VectorTimestamp, b: VectorTimestamp) -> bool:
        return b.id in self._succ.get(a.id, ())

    # -- skyline index maintenance ------------------------------------

    def _add_out(self, event_id: EventId) -> None:
        if event_id in self._has_out:
            return
        self._has_out.add(event_id)
        insort(
            self._out_index.setdefault(event_id[:2], []), event_id[2]
        )

    def _drop_out(self, event_id: EventId) -> None:
        if event_id not in self._has_out:
            return
        self._has_out.discard(event_id)
        bucket = self._out_index[event_id[:2]]
        bucket.pop(bisect_left(bucket, event_id[2]))
        if not bucket:
            del self._out_index[event_id[:2]]

    def _implied_out_suffix(
        self, current: VectorTimestamp, bucket_key: Tuple[int, int], hi: int
    ) -> int:
        """Index of the first event in ``bucket_key``'s counter list,
        below ``hi``, that ``current`` happens-before; ``hi`` if none.

        Within a bucket the events form a domination chain, so the
        predicate "current happens-before event" is monotone along the
        sorted counters and the boundary is found by bisection.
        """
        epoch, issuer = bucket_key
        counters = self._out_index[bucket_key]
        # Necessary condition: a dominating vector is at least current's
        # value in the bucket issuer's own component.
        lo = bisect_left(counters, current.clocks[issuer], 0, hi)
        while lo < hi:
            mid = (lo + hi) // 2
            candidate = self._events[(epoch, issuer, counters[mid])]
            if current.happens_before(candidate):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def reaches(self, a: VectorTimestamp, b: VectorTimestamp) -> bool:
        """True iff a path a -> ... -> b exists over explicit or implied
        edges."""
        known = self._known(a, b)
        return self._search(a, b) if known is None else known

    def _known(
        self, a: VectorTimestamp, b: VectorTimestamp
    ) -> Optional[bool]:
        """``reaches(a, b)`` when it needs no search, else None."""
        if a.id not in self._events or b.id not in self._events:
            return False
        if a.happens_before(b) or self.has_edge(a, b):
            return True
        if self.has_edge(b, a):
            return False
        return None

    def _search(self, a: VectorTimestamp, b: VectorTimestamp) -> bool:
        stats = self.stats
        events = self._events
        seen: Set[EventId] = {a.id}
        floors: Dict[Tuple[int, int], int] = {}
        frontier = deque([a.id])
        while frontier:
            current = events[frontier.popleft()]
            stats.bfs_expansions += 1
            if current.happens_before(b):
                return True
            for succ_id in self._succ[current.id]:
                if succ_id == b.id:
                    return True
                if succ_id not in seen:
                    seen.add(succ_id)
                    frontier.append(succ_id)
            # Implied successors: only events that continue explicitly
            # matter (an implied hop ending the path was handled by the
            # happens_before(b) check above; implied-then-implied
            # collapses into one implied hop by transitivity).  Each
            # bucket contributes a bisected suffix, not a full scan, and
            # only the part below the suffix it already gave this search.
            current_epoch = current.epoch
            for bucket_key, counters in self._out_index.items():
                if bucket_key[0] < current_epoch:
                    stats.bfs_pruned += len(counters)
                    continue
                end = floors.get(bucket_key, len(counters))
                if bucket_key[0] > current_epoch:
                    # A higher epoch is implied-after in its entirety.
                    start = 0
                else:
                    start = self._implied_out_suffix(
                        current, bucket_key, end
                    )
                    stats.bfs_pruned += start
                floors[bucket_key] = start
                for counter in counters[start:end]:
                    other_id = (bucket_key[0], bucket_key[1], counter)
                    if other_id not in seen:
                        seen.add(other_id)
                        frontier.append(other_id)
        return False

    def add_order(self, a: VectorTimestamp, b: VectorTimestamp) -> None:
        """Commit a happens-before edge a -> b, refusing cycles."""
        if a.id == b.id:
            raise CycleError(f"cannot order an event before itself: {a}")
        for ts in (a, b):
            if ts.id not in self._events:
                raise OrderingError(f"unknown event: {ts}")
        if self.reaches(b, a):
            raise CycleError(f"ordering {a} before {b} would create a cycle")
        self.link(a, b)

    def link(self, a: VectorTimestamp, b: VectorTimestamp) -> None:
        """Commit a -> b between registered events, unchecked: for a
        caller that has just found that ``b`` does not reach ``a``."""
        self._succ[a.id].add(b.id)
        self._pred[b.id].add(a.id)
        self._add_out(a.id)

    def remove_event(self, ts: VectorTimestamp) -> None:
        """Garbage-collect one event, bridging its edges transitively.

        Removing an interior event must not lose commitments between its
        neighbours, so every (pred, succ) pair is connected directly.
        """
        if ts.id not in self._events:
            return
        preds = self._pred.pop(ts.id)
        succs = self._succ.pop(ts.id)
        del self._events[ts.id]
        self._drop_out(ts.id)
        for p in preds:
            self._succ[p].discard(ts.id)
            for s in succs:
                if p != s:
                    self._succ[p].add(s)
                    self._pred[s].add(p)
            if self._succ[p]:
                self._add_out(p)
            else:
                self._drop_out(p)
        for s in succs:
            self._pred[s].discard(ts.id)


class TimelineOracle:
    """The event-ordering state machine.

    All mutating entry points are deterministic functions of their inputs
    plus current state, so a chain of replicas fed the same operations
    would stay identical (section 3.4; ROADMAP 15(a)–(b)).  Shards reach
    it only through ``order``; the coordinator calls ``collect_below``,
    and the history referee ``established_order``.
    """

    def __init__(self, graph: Optional[EventDependencyGraph] = None) -> None:
        # The graph and the oracle share one stats object, so the graph's
        # reachability fast-path counters surface through ``oracle.stats``.
        self._graph = graph if graph is not None else EventDependencyGraph()
        self.stats = self._graph.stats
        # What established_order's reachability work counts into while
        # it runs: no client request pays for it.  Never read.
        self._uncounted = OracleStats()
        # Optional repro.obs.Tracer; ordering decisions emit
        # ``oracle.decide`` spans (unattributed — one decision orders two
        # transactions; assemble_chain joins them via the a/b event ids).
        self.tracer = None

    @property
    def graph(self) -> EventDependencyGraph:
        return self._graph

    @property
    def num_events(self) -> int:
        return len(self._graph)

    def metrics(self) -> Dict[str, int]:
        """The collector of ``oracle.*``: the counters and sizes."""
        out = {
            f"oracle.{key}": value
            for key, value in scalar_fields(self.stats).items()
        }
        out["oracle.messages"] = self.stats.messages
        out["oracle.events"] = self.num_events
        return out

    def create_event(self, ts: VectorTimestamp) -> None:
        """Register a transaction as an event (idempotent)."""
        if self._graph.add_event(ts):
            self.stats.events_created += 1

    def established_order(
        self, a: VectorTimestamp, b: VectorTimestamp
    ) -> Optional[Ordering]:
        """The pre-established order of (a, b), or None — no accounting.

        Consults vector clocks, explicit commitments, and their combined
        transitive closure.  Never creates new commitments and counts
        nothing, not even its reachability work: region-local reads
        and the history referee use it, and no client request pays for
        them.
        """
        graph = self._graph
        graph.stats = self._uncounted
        try:
            return self._established(a, b)
        finally:
            graph.stats = self.stats

    def _established(
        self, a: VectorTimestamp, b: VectorTimestamp
    ) -> Optional[Ordering]:
        """:meth:`established_order`, its reachability work counted in
        ``stats``: the counting entry points (:meth:`query_order`,
        :meth:`order`) build on this, so one client request is counted
        exactly once, with the work it caused."""
        vc = a.compare(b)
        if vc is not Ordering.CONCURRENT:
            return vc
        self._ensure(a)
        self._ensure(b)
        if self._graph.reaches(a, b):
            return Ordering.BEFORE
        if self._graph.reaches(b, a):
            return Ordering.AFTER
        return None

    def query_order(
        self, a: VectorTimestamp, b: VectorTimestamp
    ) -> Optional[Ordering]:
        """Return the pre-established order of (a, b), or None.

        One client request, one ``queries`` increment.
        """
        self.stats.queries += 1
        return self._established(a, b)

    def order(
        self,
        a: VectorTimestamp,
        b: VectorTimestamp,
        prefer: Ordering = Ordering.BEFORE,
    ) -> Ordering:
        """Return the order of (a, b), establishing one if none exists.

        ``prefer`` is the order committed when the pair is unordered; shard
        servers pass arrival order for transaction pairs, and order node
        programs *after* concurrent committed writes (section 4.1), so that
        node programs never miss completed transactions.

        Counts as one request: a query if the pair was already ordered,
        a decision if this call established the order.  (It used to call
        :meth:`query_order` internally, charging every decision as a
        query *and* a decision — Fig 14's oracle-message counts ran ~2x
        the real request rate.)

        A decision makes two reachability searches, both inside
        :meth:`_established`: having found that neither event
        reaches the other, it links them without the cycle check
        :meth:`EventDependencyGraph.add_order` would repeat.
        """
        existing = self._established(a, b)
        if existing is not None:
            self.stats.queries += 1
            return existing
        if prefer is Ordering.BEFORE:
            first, second = a, b
        elif prefer is Ordering.AFTER:
            first, second = b, a
        else:
            raise OrderingError(f"cannot prefer {prefer}")
        self._graph.link(first, second)
        self.stats.decisions += 1
        if self.tracer is not None:
            self.tracer.emit(
                None, "oracle.decide", node="oracle",
                a=first.id, b=second.id,
            )
        return prefer

    def assign_order(self, a: VectorTimestamp, b: VectorTimestamp) -> None:
        """Explicitly commit a happens-before b (the raw Kronos primitive)."""
        self._ensure(a)
        self._ensure(b)
        self._graph.add_order(a, b)
        self.stats.decisions += 1
        if self.tracer is not None:
            self.tracer.emit(
                None, "oracle.decide", node="oracle", a=a.id, b=b.id
            )

    def collect_below(self, watermark: VectorTimestamp) -> int:
        """Drop events strictly happens-before the watermark (section 4.5).

        Only events whose order with every live query is already decided by
        vector clocks can go; edges through them are bridged so surviving
        commitments are preserved.  Returns the number collected.
        """
        victims = [
            ts for ts in list(self._graph.events)
            if ts.happens_before(watermark)
        ]
        for ts in victims:
            self._graph.remove_event(ts)
        self.stats.events_collected += len(victims)
        return len(victims)

    def _ensure(self, ts: VectorTimestamp) -> None:
        self._graph.add_event(ts)


class RegionStats:
    """Per-region coordination counters (geo deployments).

    ``local_queries`` are ordering requests a region answered from an
    order the oracle had already established — coordination traffic the
    oracle's own accounting never sees (``established_order`` never
    counts).  ``escalations`` reached the oracle as requests.
    ``oracle_messages`` (exported per region as
    ``region.<r>.oracle_messages``) is their sum; the twin's one
    :class:`~repro.sim.deployment.TauController` is fed the oracle's
    count plus every region's ``local_queries``, because the oracle's
    stats alone undercount by exactly those.
    """

    def __init__(self) -> None:
        self.local_queries = 0
        self.escalations = 0

    @property
    def oracle_messages(self) -> int:
        return self.local_queries + self.escalations


def region_metrics(
    region_stats: List[RegionStats], network=None
) -> Dict[str, int]:
    """The collector of ``region.<r>.*``: each region's counters, its
    ``oracle_messages``, and the announces its servers sent (read from
    the simulated network's per-region counts; 0 without one)."""
    out: Dict[str, int] = {}
    for r, stats in enumerate(region_stats):
        for key, value in scalar_fields(stats).items():
            out[f"region.{r}.{key}"] = value
        out[f"region.{r}.oracle_messages"] = stats.oracle_messages
        out[f"region.{r}.announce_messages"] = (
            network.stats.region_count(r, "announce")
            if network is not None else 0
        )
    return out


class RegionOracleClient:
    """A region's window onto the timeline oracle.

    Geo deployments give each region's shards one of these instead of the
    raw oracle.  A pair the oracle has already ordered is answered
    locally, and only a pair that needs a new decision escalates to
    ``order``.  The client keeps the region's own request accounting in
    :class:`RegionStats`, because locally-answered pairs never touch the
    oracle's stats.
    """

    def __init__(self, oracle, region: int, stats: Optional[RegionStats] = None):
        self._oracle = oracle
        self.region = region
        self.stats = stats if stats is not None else RegionStats()

    def order(
        self,
        a: VectorTimestamp,
        b: VectorTimestamp,
        prefer: Ordering = Ordering.BEFORE,
    ) -> Ordering:
        established = self._oracle.established_order(a, b)
        if established is not None:
            self.stats.local_queries += 1
            return established
        self.stats.escalations += 1
        return self._oracle.order(a, b, prefer)
