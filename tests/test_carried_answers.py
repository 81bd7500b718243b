"""Carried answers are the ones a fresh view gives, under random writes:
a differential on one ``ShardServer``.

Two gatekeepers stamp the writes and the reads, and announce only where
a step says so, so reads come at stamps that follow everything the
shard holds, at stamps concurrent with an applied write, and — read
again later — at historical stamps; GC runs at a stamp already read.
At every read, the view the shard reads through
(:meth:`~repro.cluster.shard.ShardServer.snapshot`, which carries
answers across current stamps) answers as a view built with carrying
bypassed does — also when a reader holds it across later writes, as a
query's rounds do, and asks it for handles it has not seen.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster.messages import QueuedTransaction
from repro.cluster.shard import ShardServer
from repro.core.gatekeeper import Gatekeeper, sync_announce_all
from repro.core.oracle import TimelineOracle
from repro.db import operations as ops

from .test_shared_snapshot import answers, carried_as_fresh

HANDLES = ("a", "b", "c", "d")
EDGES = ("x", "y", "z")


class Rig:
    """One shard fed by two gatekeepers, and a model of what is live."""

    def __init__(self):
        self.gatekeepers = [Gatekeeper(i, 2) for i in range(2)]
        self.shard = ShardServer(0, 2, TimelineOracle())
        self.seqnos = [0, 0]
        self.rank = 0
        self.live = {}          # live vertex -> its live edge handles
        # (stamp, view read through) of each read, oldest first.
        self.read = []

    def send(self, gk, ts, operations=()):
        self.shard.enqueue(gk, QueuedTransaction(
            ts, tuple(operations), seqno=self.seqnos[gk], tiebreak=self.rank,
        ))
        self.seqnos[gk] += 1
        self.rank += 1

    def write(self, gk, choices):
        """Commit the valid ones of ``choices`` as one transaction."""
        operations = []
        for kind, v, w, e, value in choices:
            src, dst, edge = HANDLES[v], HANDLES[w], EDGES[e]
            edges = self.live.get(src)
            if kind == 0 and edges is None:
                self.live[src] = set()
                operations.append(ops.CreateVertex(src))
            elif kind == 1 and edges is not None:
                del self.live[src]
                operations.append(ops.DeleteVertex(src))
            elif kind == 2 and edges is not None and edge not in edges:
                edges.add(edge)
                operations.append(ops.CreateEdge(edge, src, dst))
            elif kind == 3 and edges is not None and edge in edges:
                edges.discard(edge)
                operations.append(ops.DeleteEdge(src, edge))
            elif kind == 4 and edges is not None:
                operations.append(ops.SetVertexProperty(src, "k", value))
            elif kind == 5 and edges is not None and edge in edges:
                operations.append(ops.SetEdgeProperty(src, edge, "k", value))
        if operations:
            self.send(gk, self.gatekeepers[gk].issue_timestamp(), operations)

    def read_fresh(self, gk, announce, seen=len(HANDLES)):
        """Read the first ``seen`` handles at a new stamp from ``gk``,
        after an announce round if ``announce``; without one, writes
        from the other gatekeeper are concurrent with it."""
        if announce:
            sync_announce_all(self.gatekeepers)
        ts = self.gatekeepers[gk].issue_timestamp()
        # Heartbeats after the stamp make the shard ready for it.
        sync_announce_all(self.gatekeepers)
        for i, gatekeeper in enumerate(self.gatekeepers):
            self.send(i, gatekeeper.make_nop())
        assert self.shard.advance_to(ts)
        carried_as_fresh(self.shard, ts, HANDLES[:seen])
        self.read.append((ts, self.shard.snapshot(ts)))

    def read_again(self, back):
        """Every handle at an earlier read's stamp, through the view
        the shard gives now."""
        carried_as_fresh(self.shard, self.read[-1 - back][0], HANDLES)

    def read_held(self, back):
        """Every handle through the view an earlier read went through,
        whatever was applied since."""
        ts, view = self.read[-1 - back]
        assert answers(view, HANDLES) == answers(
            self.shard.graph.at(ts), HANDLES
        )

    def collect(self):
        """GC at the middle stamp read; older ones are not read again."""
        middle = len(self.read) // 2
        self.shard.collect_below(self.read[middle][0])
        del self.read[:middle]


write_step = st.tuples(
    st.just("write"), st.integers(0, 1),
    st.lists(st.tuples(
        st.integers(0, 5), st.integers(0, 3), st.integers(0, 3),
        st.integers(0, 2), st.integers(0, 2),
    ), min_size=1, max_size=3),
)
steps = st.lists(st.one_of(
    write_step,
    st.tuples(
        st.just("read"), st.integers(0, 1), st.booleans(),
        st.integers(1, len(HANDLES)),
    ),
    st.tuples(st.just("again"), st.integers(0, 8)),
    st.tuples(st.just("held"), st.integers(0, 3)),
    st.tuples(st.just("gc")),
), max_size=30)


@settings(max_examples=400, deadline=None)
@given(steps)
def test_every_read_answers_as_a_fresh_view(script):
    rig = Rig()
    rig.read_fresh(0, True)
    for step in script:
        kind = step[0]
        if kind == "write":
            rig.write(step[1], step[2])
        elif kind == "read":
            rig.read_fresh(*step[1:])
        elif kind == "again" and step[1] < len(rig.read):
            rig.read_again(step[1])
        elif kind == "held" and step[1] < len(rig.read):
            rig.read_held(step[1])
        elif kind == "gc":
            rig.collect()


def test_the_rig_carries():
    """The differential exercises carrying: a write between two current
    reads leaves the other handles' answers to the second."""
    rig = Rig()
    rig.write(0, [(0, v, 0, 0, 0) for v in range(4)] + [(2, 0, 1, 0, 0)])
    rig.read_fresh(0, True)
    rig.write(1, [(4, 1, 0, 0, 1)])
    before = rig.shard.stats.answers_carried
    rig.read_fresh(1, True)
    # a, c and d, and the out-edges of each: all but b's two answers.
    assert rig.shard.stats.answers_carried - before == 6


def test_a_view_held_across_a_write_gives_the_graph_nothing():
    """A view read after a write it does not see (a query's later round)
    answers for its own stamp, and those answers are not the current
    ones: the read after it still sees the write."""
    rig = Rig()
    rig.write(0, [(0, v, 0, 0, 0) for v in range(4)])
    rig.read_fresh(0, True, seen=1)         # a only
    rig.write(1, [(2, 1, 0, 0, 0)])         # an edge b -> a
    rig.read_fresh(1, True, seen=1)         # applies it
    rig.read_held(1)                        # b through the first view
    rig.read_fresh(0, True)
