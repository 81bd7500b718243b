"""Differential test: indexed reachability ≡ the seed's scan-all BFS.

The skyline-indexed ``EventDependencyGraph.reaches()`` must answer every
query exactly like :class:`ReferenceEventDependencyGraph` (the seed
implementation: full BFS over explicit ∪ implied edges), on randomized
event DAGs with hundreds of events, mixed epochs, and interleaved
``add_order`` / ``remove_event`` / ``collect_below`` — the operations
that exercise the index maintenance and the edge lookup a decided pair
is answered by.
"""

import random

import pytest

from repro.core.oracle import TimelineOracle
from repro.core.ordering import Ordering
from repro.core.vclock import VectorClock

from .oracle_reference import reference_oracle


def _issue_stamps(rng, num_gatekeepers, num_events, max_epoch=2):
    """A causally-valid stamp stream: ticks, random observes, and
    cluster-wide (barriered) epoch bumps."""
    clocks = [VectorClock(num_gatekeepers, i) for i in range(num_gatekeepers)]
    epoch = 0
    stamps = []
    while len(stamps) < num_events:
        roll = rng.random()
        actor = rng.randrange(num_gatekeepers)
        if roll < 0.02 and epoch < max_epoch:
            epoch += 1
            for clock in clocks:
                clock.advance_epoch(epoch)
        elif roll < 0.35:
            peer = rng.randrange(num_gatekeepers)
            clocks[actor].observe(clocks[peer].announce())
        else:
            stamps.append(clocks[actor].tick())
    return stamps


def _cross_check_pairs(indexed, reference, stamps, rng, samples):
    """Both graphs answer identically on sampled (and flipped) pairs."""
    live = [ts for ts in stamps if ts in indexed.graph]
    if len(live) < 2:
        return
    for _ in range(samples):
        a, b = rng.sample(live, 2)
        assert indexed.graph.reaches(a, b) == reference.graph.reaches(a, b)
        assert indexed.graph.reaches(b, a) == reference.graph.reaches(b, a)
        # Repeat the first direction: asking must not change the answer.
        assert indexed.graph.reaches(a, b) == reference.graph.reaches(a, b)


def _spy_reference(reference):
    """The pairs the reference graph's own ``reaches`` was asked: a
    concurrent pair's ``order`` or ``query_order`` must reach it, or the
    comparison would check the index against itself."""
    graph = reference.graph
    own = graph.reaches
    asked = []
    graph.reaches = lambda a, b: asked.append((a, b)) or own(a, b)
    return asked


def _ran(asked, before, a, b):
    """The reference search ran since ``before`` iff (a, b) needs it."""
    return (len(asked) > before) == (a.compare(b) is Ordering.CONCURRENT)


@pytest.mark.parametrize("seed", [1, 7, 23, 91])
def test_indexed_reaches_matches_reference(seed):
    rng = random.Random(seed)
    stamps = _issue_stamps(rng, num_gatekeepers=3, num_events=240)
    indexed = TimelineOracle()
    reference = reference_oracle()
    asked = _spy_reference(reference)

    for ts in stamps:
        indexed.create_event(ts)
        reference.create_event(ts)

    for step in range(420):
        roll = rng.random()
        before = len(asked)
        if roll < 0.55:
            a, b = rng.sample(stamps, 2)
            prefer = Ordering.BEFORE if rng.random() < 0.5 else Ordering.AFTER
            decided_i = indexed.order(a, b, prefer)
            decided_r = reference.order(a, b, prefer)
            assert decided_i is decided_r, (a, b, prefer)
            assert _ran(asked, before, a, b)
        elif roll < 0.72:
            a, b = rng.sample(stamps, 2)
            assert indexed.query_order(a, b) is reference.query_order(a, b)
            assert _ran(asked, before, a, b)
        elif roll < 0.86:
            victim = rng.choice(stamps)
            indexed.graph.remove_event(victim)
            reference.graph.remove_event(victim)
            # Re-register: a collected event must come back with no
            # memory of its old edges in *both* implementations.
            if rng.random() < 0.5:
                indexed.create_event(victim)
                reference.create_event(victim)
        else:
            watermark = rng.choice(stamps)
            collected_i = indexed.collect_below(watermark)
            collected_r = reference.collect_below(watermark)
            assert collected_i == collected_r
        if step % 60 == 0:
            _cross_check_pairs(indexed, reference, stamps, rng, samples=40)

    _cross_check_pairs(indexed, reference, stamps, rng, samples=150)


def test_indexed_reaches_matches_reference_dense_single_epoch():
    """Dense concurrent workload: many crossed stamps, heavy ordering."""
    rng = random.Random(5)
    stamps = _issue_stamps(rng, num_gatekeepers=2, num_events=120, max_epoch=0)
    indexed = TimelineOracle()
    reference = reference_oracle()
    asked = _spy_reference(reference)
    for ts in stamps:
        indexed.create_event(ts)
        reference.create_event(ts)
    for _ in range(500):
        a, b = rng.sample(stamps, 2)
        before = len(asked)
        assert indexed.order(a, b) is reference.order(a, b)
        assert _ran(asked, before, a, b)
    _cross_check_pairs(indexed, reference, stamps, rng, samples=250)


def test_fastpath_counters_move():
    """The new OracleStats counters actually count."""
    rng = random.Random(11)
    stamps = _issue_stamps(rng, num_gatekeepers=2, num_events=60, max_epoch=0)
    oracle = TimelineOracle()
    for ts in stamps:
        oracle.create_event(ts)
    pairs = [tuple(rng.sample(stamps, 2)) for _ in range(120)]
    for a, b in pairs:
        oracle.order(a, b)
    for a, b in pairs:
        oracle.query_order(a, b)
    assert oracle.stats.bfs_expansions > 0
    assert oracle.stats.bfs_pruned > 0
