"""The timeline oracle: reactive ordering, DAG invariants, GC."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.oracle import (
    EventDependencyGraph,
    RegionOracleClient,
    RegionStats,
    TimelineOracle,
    region_metrics,
)
from repro.core.vclock import Ordering, VectorTimestamp
from repro.errors import CycleError, OrderingError


def ts(clocks, issuer=0, epoch=0):
    return VectorTimestamp(epoch, tuple(clocks), issuer)


# Convenient concurrent stamps (crossed vectors).
A = ts([1, 0], issuer=0)
B = ts([0, 1], issuer=1)
C = ts([2, 0], issuer=0)
D = ts([0, 2], issuer=1)


class TestEventDependencyGraph:
    def test_add_event_idempotent(self):
        g = EventDependencyGraph()
        assert g.add_event(A)
        assert not g.add_event(A)
        assert len(g) == 1

    def test_contains(self):
        g = EventDependencyGraph()
        g.add_event(A)
        assert A in g and B not in g

    def test_explicit_edge_reaches(self):
        g = EventDependencyGraph()
        g.add_event(A)
        g.add_event(B)
        g.add_order(A, B)
        assert g.reaches(A, B)
        assert not g.reaches(B, A)

    def test_vclock_implied_edge_reaches(self):
        g = EventDependencyGraph()
        g.add_event(A)
        g.add_event(C)  # A < C by vector clock
        assert g.reaches(A, C)

    def test_mixed_transitivity_through_vclock(self):
        # The paper's example: commit <0,1> -> <1,0>; then <0,1> reaches
        # <2,0> because <1,0> < <2,0> by vector clock.
        g = EventDependencyGraph()
        for event in (B, A, C):
            g.add_event(event)
        g.add_order(B, A)
        assert g.reaches(B, C)

    def test_cycle_refused(self):
        g = EventDependencyGraph()
        g.add_event(A)
        g.add_event(B)
        g.add_order(A, B)
        with pytest.raises(CycleError):
            g.add_order(B, A)

    def test_cycle_via_vclock_refused(self):
        # B -> A exists implicitly? No: A and B concurrent; but A < C by
        # clock, so ordering C before B then B before A... A<C implied,
        # C->B explicit, B->A explicit would make a cycle A->C->B->A.
        g = EventDependencyGraph()
        for event in (A, B, C):
            g.add_event(event)
        g.add_order(C, B)
        with pytest.raises(CycleError):
            g.add_order(B, A)

    def test_self_order_refused(self):
        g = EventDependencyGraph()
        g.add_event(A)
        with pytest.raises(CycleError):
            g.add_order(A, A)

    def test_unknown_event_refused(self):
        g = EventDependencyGraph()
        g.add_event(A)
        with pytest.raises(OrderingError):
            g.add_order(A, B)

    def test_transitive_chain(self):
        g = EventDependencyGraph()
        stamps = [ts([i + 1, 0]) if i % 2 == 0 else ts([0, i + 1], issuer=1)
                  for i in range(4)]
        for s in stamps:
            g.add_event(s)
        g.add_order(stamps[0], stamps[1])
        g.add_order(stamps[1], stamps[2])
        g.add_order(stamps[2], stamps[3])
        assert g.reaches(stamps[0], stamps[3])

    def test_remove_event_bridges_edges(self):
        g = EventDependencyGraph()
        for event in (A, B, D):
            g.add_event(event)
        g.add_order(A, B)
        g.add_order(B, D)
        g.remove_event(B)
        assert g.reaches(A, D)
        assert B not in g

    def test_a_reverse_edge_answers_without_search(self):
        g = EventDependencyGraph()
        for event in (A, B):
            g.add_event(event)
        g.add_order(A, B)
        expansions = g.stats.bfs_expansions
        assert not g.reaches(B, A)
        assert g.reaches(A, B)
        assert g.stats.bfs_expansions == expansions

    def test_a_bridged_edge_answers_without_search(self):
        # The reverse-edge answer is sound only while removing an event
        # keeps its neighbours' order as explicit edges.
        g = EventDependencyGraph()
        for event in (A, B, D):
            g.add_event(event)
        g.add_order(A, B)
        g.add_order(B, D)
        g.remove_event(B)
        assert g.has_edge(A, D)
        expansions = g.stats.bfs_expansions
        assert not g.reaches(D, A)
        assert g.stats.bfs_expansions == expansions

    def test_remove_missing_event_is_noop(self):
        g = EventDependencyGraph()
        g.remove_event(A)
        assert len(g) == 0


class TestTimelineOracle:
    def test_query_orders_comparable_by_vclock(self):
        oracle = TimelineOracle()
        assert oracle.query_order(A, C) is Ordering.BEFORE

    def test_query_unordered_returns_none(self):
        oracle = TimelineOracle()
        assert oracle.query_order(A, B) is None

    def test_order_establishes_preference(self):
        oracle = TimelineOracle()
        assert oracle.order(A, B) is Ordering.BEFORE
        assert oracle.query_order(A, B) is Ordering.BEFORE

    def test_order_prefer_after(self):
        oracle = TimelineOracle()
        assert oracle.order(A, B, prefer=Ordering.AFTER) is Ordering.AFTER
        assert oracle.query_order(B, A) is Ordering.BEFORE

    def test_decisions_are_monotonic(self):
        oracle = TimelineOracle()
        oracle.order(A, B)
        # A later opposite preference cannot override the commitment.
        assert oracle.order(A, B, prefer=Ordering.AFTER) is Ordering.BEFORE

    def test_decision_consistent_across_directions(self):
        oracle = TimelineOracle()
        oracle.order(A, B)
        assert oracle.order(B, A) is Ordering.AFTER

    def test_transitive_inference(self):
        oracle = TimelineOracle()
        oracle.order(B, A)  # B before A; A < C by vclock
        assert oracle.query_order(B, C) is Ordering.BEFORE

    def test_a_decision_makes_two_searches(self, monkeypatch):
        oracle = TimelineOracle()
        oracle.order(C, D)      # an explicit edge, so searches expand
        searched = []
        search = oracle.graph._search

        def counted(a, b):
            searched.append((a.id, b.id))
            return search(a, b)

        monkeypatch.setattr(oracle.graph, "_search", counted)
        assert oracle.order(A, B, prefer=Ordering.AFTER) is Ordering.AFTER
        # Both directions, once each: no third search for the cycle
        # check, which these two already answered.
        assert searched == [(A.id, B.id), (B.id, A.id)]
        assert oracle.stats.decisions == 2
        assert oracle.query_order(B, A) is Ordering.BEFORE
        with pytest.raises(CycleError):
            oracle.assign_order(A, B)

    def test_a_decided_pair_is_an_edge_lookup(self, monkeypatch):
        oracle = TimelineOracle()
        oracle.order(C, D)      # an explicit edge, so searches expand
        assert oracle.order(A, B) is Ordering.BEFORE
        searched = []
        search = oracle.graph._search

        def counted(a, b):
            searched.append((a.id, b.id))
            return search(a, b)

        monkeypatch.setattr(oracle.graph, "_search", counted)
        expansions = oracle.stats.bfs_expansions
        # Re-asked either way round, a decided pair is an edge lookup:
        # no search, not even the failing one for the other direction.
        assert oracle.query_order(B, A) is Ordering.AFTER
        assert oracle.order(B, A) is Ordering.AFTER
        assert oracle.query_order(A, B) is Ordering.BEFORE
        assert oracle.established_order(B, A) is Ordering.AFTER
        assert oracle.stats.bfs_expansions == expansions
        assert searched == []

    def test_prefer_equal_rejected(self):
        oracle = TimelineOracle()
        with pytest.raises(OrderingError):
            oracle.order(A, B, prefer=Ordering.EQUAL)

    def test_create_event_counts_once(self):
        oracle = TimelineOracle()
        oracle.create_event(A)
        oracle.create_event(A)
        assert oracle.stats.events_created == 1

    def test_stats_messages(self):
        oracle = TimelineOracle()
        oracle.order(A, B)
        assert oracle.stats.decisions == 1
        assert oracle.stats.messages >= 1

    def test_a_repeated_order_is_a_query(self):
        # One client request, one message: the first order decides, the
        # second finds the order established.
        oracle = TimelineOracle()
        oracle.order(A, B)
        oracle.order(A, B)
        assert oracle.stats.decisions == 1
        assert oracle.stats.queries == 1
        assert oracle.stats.messages == 2

    def test_collect_below_drops_old_events(self):
        oracle = TimelineOracle()
        oracle.order(A, B)
        watermark = ts([5, 5])
        collected = oracle.collect_below(watermark)
        assert collected == 2
        assert oracle.num_events == 0

    def test_collect_below_keeps_concurrent_events(self):
        oracle = TimelineOracle()
        oracle.order(A, B)
        watermark = ts([5, 0])  # concurrent with B
        oracle.collect_below(watermark)
        assert oracle.num_events == 1

    def test_collect_preserves_bridged_decisions(self):
        oracle = TimelineOracle()
        oracle.order(A, B)
        oracle.order(B, C)  # explicit, though also implied via nothing
        before = oracle.query_order(A, C)
        oracle.collect_below(ts([0, 2], issuer=1))  # collects nothing older
        assert oracle.query_order(A, C) == before

    def test_one_request_moves_messages_by_one(self):
        oracle = TimelineOracle()
        oracle.order(A, B)
        before = oracle.metrics()
        oracle.order(A, B)
        after = oracle.metrics()
        assert after["oracle.messages"] - before["oracle.messages"] == 1

    def test_an_undecided_established_order_decides_nothing(self):
        # The referee's question leaves the pair open: a later order
        # still commits the caller's preference.
        oracle = TimelineOracle()
        assert oracle.established_order(A, B) is None
        assert (oracle.stats.messages, oracle.stats.decisions) == (0, 0)
        assert oracle.order(A, B, prefer=Ordering.AFTER) is Ordering.AFTER
        assert oracle.stats.decisions == 1

    def test_assign_order_registers_both_events(self):
        oracle = TimelineOracle()
        oracle.assign_order(B, A)
        assert oracle.num_events == 2
        assert oracle.stats.events_created == 0
        assert oracle.stats.decisions == 1
        assert oracle.query_order(A, B) is Ordering.AFTER

    def test_a_vector_clock_order_ignores_prefer(self):
        # Vector clocks already order (A, C): one query, no decision,
        # and no event enters the graph.
        oracle = TimelineOracle()
        assert oracle.order(A, C, prefer=Ordering.AFTER) is Ordering.BEFORE
        assert (oracle.stats.queries, oracle.stats.decisions) == (1, 0)
        assert oracle.num_events == 0

    def test_metrics_name_every_counter_and_the_size(self):
        oracle = TimelineOracle()
        oracle.order(A, B)
        assert oracle.metrics() == {
            "oracle.queries": 0,
            "oracle.decisions": 1,
            "oracle.events_created": 0,
            "oracle.events_collected": 0,
            "oracle.bfs_expansions": oracle.stats.bfs_expansions,
            "oracle.bfs_pruned": oracle.stats.bfs_pruned,
            "oracle.messages": 1,
            "oracle.events": 2,
        }

    def test_collect_below_counts_what_it_drops(self):
        oracle = TimelineOracle()
        oracle.order(A, B)
        oracle.order(C, D)
        assert oracle.collect_below(ts([2, 1], issuer=0)) == 2  # A and B
        metrics = oracle.metrics()
        assert metrics["oracle.events_collected"] == 2
        assert metrics["oracle.events"] == 2
        # A collection is not a request.
        assert metrics["oracle.messages"] == 2
        assert oracle.query_order(C, D) is Ordering.BEFORE


class TestRegionOracleClient:
    """A region's client answers a pair the oracle already ordered
    without a request, and sends the oracle only what needs deciding."""

    def test_an_established_pair_is_local_and_uncounted(self):
        oracle = TimelineOracle()
        oracle.order(A, B)
        client = RegionOracleClient(oracle, 0)
        before = oracle.metrics()
        assert client.order(B, A) is Ordering.AFTER
        assert client.order(A, C) is Ordering.BEFORE  # vector clocks
        assert (client.stats.local_queries, client.stats.escalations) == (
            2, 0
        )
        assert oracle.metrics() == before

    def test_an_undecided_pair_escalates_once_then_is_local_elsewhere(self):
        oracle = TimelineOracle()
        east = RegionOracleClient(oracle, 0)
        west = RegionOracleClient(oracle, 1)
        assert east.order(A, B, prefer=Ordering.AFTER) is Ordering.AFTER
        assert (east.stats.local_queries, east.stats.escalations) == (0, 1)
        assert oracle.stats.decisions == 1
        assert oracle.stats.messages == 1
        assert west.order(A, B) is Ordering.AFTER
        assert (west.stats.local_queries, west.stats.escalations) == (1, 0)
        assert oracle.stats.messages == 1
        for client in (east, west):
            stats = client.stats
            assert stats.oracle_messages == (
                stats.local_queries + stats.escalations
            ) == 1

    def test_clients_of_one_region_share_its_stats(self):
        oracle = TimelineOracle()
        stats = RegionStats()
        first = RegionOracleClient(oracle, 0, stats)
        second = RegionOracleClient(oracle, 0, stats)
        first.order(A, B)
        second.order(B, A)
        second.order(A, C)
        assert (stats.local_queries, stats.escalations) == (2, 1)
        assert stats.oracle_messages == 3

    def test_a_refused_escalation_decides_nothing(self):
        oracle = TimelineOracle()
        client = RegionOracleClient(oracle, 0)
        with pytest.raises(OrderingError):
            client.order(A, B, prefer=Ordering.EQUAL)
        assert oracle.stats.decisions == 0
        assert oracle.established_order(A, B) is None
        assert client.order(A, B, prefer=Ordering.AFTER) is Ordering.AFTER

    def test_region_metrics_name_each_region(self):
        east, west = RegionStats(), RegionStats()
        east.local_queries, east.escalations = 3, 1
        west.escalations = 2
        assert region_metrics([east, west]) == {
            "region.0.local_queries": 3,
            "region.0.escalations": 1,
            "region.0.oracle_messages": 4,
            "region.0.announce_messages": 0,
            "region.1.local_queries": 0,
            "region.1.escalations": 2,
            "region.1.oracle_messages": 2,
            "region.1.announce_messages": 0,
        }


# -- property-based: the oracle always yields a consistent total order ------

pair_indices = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.booleans()),
    min_size=1,
    max_size=25,
)


@settings(max_examples=50, deadline=None)
@given(pair_indices)
def test_oracle_never_contradicts_itself(requests):
    """Whatever order requests arrive in, answers never flip."""
    stamps = [ts([i + 1, 0], issuer=0) for i in range(4)] + [
        ts([0, i + 1], issuer=1) for i in range(4)
    ]
    oracle = TimelineOracle()
    remembered = {}
    for i, j, prefer_after in requests:
        a, b = stamps[i], stamps[j]
        if a.id == b.id:
            continue
        prefer = Ordering.AFTER if prefer_after else Ordering.BEFORE
        decided = oracle.order(a, b, prefer)
        key = (a.id, b.id)
        if key in remembered:
            assert decided is remembered[key]
        remembered[key] = decided
        remembered[(b.id, a.id)] = decided.flipped()


@settings(max_examples=50, deadline=None)
@given(pair_indices)
def test_oracle_total_order_is_acyclic(requests):
    """The committed relation can always be topologically sorted."""
    stamps = [ts([i + 1, 0], issuer=0) for i in range(4)] + [
        ts([0, i + 1], issuer=1) for i in range(4)
    ]
    oracle = TimelineOracle()
    edges = []
    for i, j, prefer_after in requests:
        a, b = stamps[i], stamps[j]
        if a.id == b.id:
            continue
        prefer = Ordering.AFTER if prefer_after else Ordering.BEFORE
        decided = oracle.order(a, b, prefer)
        edges.append((a, b) if decided is Ordering.BEFORE else (b, a))
    # Kahn's algorithm over decided edges must consume every vertex.
    nodes = {s.id for pair in edges for s in pair}
    out = {n: set() for n in nodes}
    indeg = {n: 0 for n in nodes}
    for a, b in edges:
        if b.id not in out[a.id]:
            out[a.id].add(b.id)
            indeg[b.id] += 1
    ready = [n for n in nodes if indeg[n] == 0]
    seen = 0
    while ready:
        n = ready.pop()
        seen += 1
        for m in out[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    assert seen == len(nodes)
