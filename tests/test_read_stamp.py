"""Reads ride the ready stamp: ``Coordinator._stamp_program`` reuses the
stamp it last issued — no timestamp, announce, heartbeat or frame —
while that stamp is still the readiness mark and no commit has been
attempted since; anything else stamps afresh and storms.

The rule is one ``if`` in ``db/database.py``; this file is its proof by
cases.  Deterministic, on the in-process :class:`Weaver` and on a
2-worker :class:`ProcessWeaver` (test ids carry ``process`` so CI's
transport job can select them): the counts of a
quiet stretch, every source of invalidation, the ``at=`` read that must
not become the reusable stamp, a dead worker, a traversal on a reused
stamp.  Random: a ``hypothesis`` state machine against a dict model, in
which every current read storms exactly when the model says something
happened.  Referee: the rule with its invalidation patched out is
convicted by ``HistoryChecker``; the real one, and a process-transport
soak, are not.
"""

import copy
import time
from types import SimpleNamespace

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.cluster.process import ProcessWeaver
from repro.cluster.transport import TransportError
from repro.cluster.worker import ResidentEngine
from repro.core.vclock import Ordering
from repro.db import Weaver, WeaverClient, WeaverConfig
from repro.errors import ProgramError, TransactionAborted
from repro.programs.library import Bfs, GetNode, params
from repro.verify.history import History, HistoryChecker, decided_order
from repro.workloads.chaos import ProcessClient, SoakReport, run_soak

from .reference_executor import execute_sequential

G, S = 4, 2
DEPLOYMENTS = ("weaver", "process")


def deploy(kind, **settings):
    config = WeaverConfig(num_gatekeepers=G, num_shards=S, **settings)
    return Weaver(config) if kind == "weaver" else ProcessWeaver(config)


def _deployment(request, **settings):
    deployment = deploy(request.param, **settings)
    yield deployment
    if isinstance(deployment, ProcessWeaver):
        deployment.close()


db = pytest.fixture(params=DEPLOYMENTS, name="db")(_deployment)
process_db = pytest.fixture(
    params=DEPLOYMENTS[1:], name="process_db"
)(_deployment)


def storms(db):
    return db.executor.stats.readiness_storms


def hits(db):
    return db.executor.stats.readiness_fastpath_hits


def nops_sent(db):
    return sum(gk.stats.nops_sent for gk in db.gatekeepers)


def stamp_spans(db):
    return db.tracer.spans(kind="program.stamp")


def write(db, vertex, key, value):
    tx = db.begin_transaction()
    tx.set_property(vertex, key, value)
    return tx.commit()


def prop(db, vertex, key, at=None):
    node = db.run_program(GetNode(), vertex, at=at).value
    return node["properties"].get(key)


def hot_and_cold(db):
    """One commit: ``hot`` on shard 0, ``cold`` on shard 1."""
    tx = db.begin_transaction()
    tx.create_vertex("hot")
    tx.create_vertex("cold")
    tx.set_property("hot", "n", 0)
    tx.set_property("cold", "n", 0)
    tx.commit()
    assert (db._shard_of("hot"), db._shard_of("cold")) == (0, 1)


class TestQuietStretch:
    def test_n_reads_after_one_commit_storm_once(self, db):
        hot_and_cold(db)
        results = [db.run_program(GetNode(), "hot") for _ in range(25)]
        assert storms(db) == 1
        assert hits(db) == 24
        assert nops_sent(db) == G
        assert len({r.timestamp.id for r in results}) == 1
        spans = stamp_spans(db)
        assert len({s.attr("ts").id for s in spans}) == 1
        assert all(r.value["properties"] == {"n": 0} for r in results)

    def test_a_reused_stamp_serves_the_other_shard_too(self, db):
        hot_and_cold(db)
        assert prop(db, "hot", "n") == 0
        assert prop(db, "cold", "n") == 0
        assert prop(db, "hot", "n") == 0
        assert (storms(db), hits(db)) == (1, 2)

    def test_stamp_span_names_the_issuer_and_marks_reuse(self, db):
        hot_and_cold(db)                    # round robin: gk0 commits
        point = db.checkpoint()             # gk1 issues
        for _ in range(3):                  # gk2 issues; gk3, gk0 reuse
            db.run_program(GetNode(), "hot")
        db.run_program(GetNode(), "hot", at=point)
        fresh, again, third, historical = stamp_spans(db)
        issuer = fresh.attr("ts").issuer
        assert issuer == 2 and fresh.node == "gk2"
        assert "reused" not in fresh.attrs_dict()
        for span in (again, third):
            assert span.node == "gk2"
            assert span.attr("reused") is True
            assert span.attr("ts") is fresh.attr("ts")
        # An `at=` read is attributed to whoever issued `at`, not to
        # the gatekeeper the round robin happened to be at.
        assert historical.node == f"gk{point.issuer}" == "gk1"
        assert "reused" not in historical.attrs_dict()
        # Reused or not, a program moves the round robin one step, so
        # the next commit lands where it always did.
        assert db.begin_transaction().gatekeeper_index == (1 + 1 + 4) % G


class TestWhatRetiresTheStamp:
    def test_commit_between_reads_is_seen(self, db):
        hot_and_cold(db)
        assert prop(db, "hot", "n") == 0
        write(db, "hot", "n", 1)
        assert prop(db, "hot", "n") == 1        # same vertex
        assert storms(db) == 2
        write(db, "cold", "n", 2)
        assert prop(db, "hot", "n") == 1        # read one shard ...
        assert prop(db, "cold", "n") == 2       # ... written on the other
        assert (storms(db), hits(db)) == (3, 1)
        write(db, "hot", "n", 3)
        assert prop(db, "cold", "n") == 2
        assert prop(db, "hot", "n") == 3
        assert (storms(db), hits(db)) == (4, 2)

    def test_aborted_commit_costs_one_storm(self, db):
        """The safe side, asserted so nobody optimises it: an attempt
        retires the stamp whether or not it commits."""
        hot_and_cold(db)
        loser = db.begin_transaction()
        loser.set_property("hot", "n", "lost")
        write(db, "hot", "n", 1)
        assert prop(db, "hot", "n") == 1
        assert prop(db, "hot", "n") == 1
        before = (storms(db), hits(db))
        with pytest.raises(TransactionAborted):
            loser.commit()
        assert prop(db, "hot", "n") == 1
        assert (storms(db), hits(db)) == (before[0] + 1, before[1])
        assert "reused" not in stamp_spans(db)[-1].attrs_dict()

    def test_commit_that_dies_after_the_store_committed(
        self, db, monkeypatch
    ):
        """The invalidation is the commit path's first statement: a
        forward that raises once the store has the write still retires
        the stamp (a counter bumped on return would have missed it)."""
        hot_and_cold(db)
        assert prop(db, "hot", "n") == 0
        assert prop(db, "hot", "n") == 0
        before = (storms(db), hits(db))

        def broken_channel(*args):
            raise RuntimeError("forward failed")

        with monkeypatch.context() as patch:
            patch.setattr(db, "_enqueue", broken_channel)
            with pytest.raises(RuntimeError, match="forward failed"):
                write(db, "hot", "n", "durable")
        assert db.store.get("v:hot")["n"] == "durable"
        db.run_program(GetNode(), "hot")
        assert (storms(db), hits(db)) == (before[0] + 1, before[1])
        assert "reused" not in stamp_spans(db)[-1].attrs_dict()

    def test_checkpoint_read_does_not_become_the_read_stamp(self, db):
        """A first cut keyed on the readiness mark alone served the
        last read below from ``point``: old."""
        hot_and_cold(db)
        point = db.checkpoint()
        write(db, "hot", "n", "new")
        assert prop(db, "hot", "n", at=point) == 0
        assert prop(db, "hot", "n") == "new"
        assert storms(db) == 2

    def test_at_read_that_moves_the_mark_retires_the_stamp(self, db):
        hot_and_cold(db)
        assert prop(db, "hot", "n") == 0
        point = db.checkpoint()
        assert prop(db, "hot", "n", at=point) == 0      # mark := point
        assert prop(db, "hot", "n") == 0                # so: afresh
        assert (storms(db), hits(db)) == (3, 0)
        assert "reused" not in stamp_spans(db)[-1].attrs_dict()
        # An `at=` read at or before the mark moves nothing.
        assert prop(db, "hot", "n", at=point) == 0
        assert prop(db, "hot", "n") == 0
        assert (storms(db), hits(db)) == (3, 2)
        assert stamp_spans(db)[-1].attr("reused") is True

    @staticmethod
    def barrier_then_read_storms(db, barrier):
        hot_and_cold(db)
        write(db, "hot", "n", 1)
        assert prop(db, "hot", "n") == 1
        assert prop(db, "hot", "n") == 1
        before = (storms(db), hits(db))
        barrier(db)
        assert prop(db, "hot", "n") == 1
        assert prop(db, "cold", "n") == 0
        assert (storms(db), hits(db)) == (before[0] + 1, before[1] + 1)

    @pytest.mark.parametrize("barrier", ("drain", "collect_garbage"))
    def test_barrier_then_read_storms(self, db, barrier):
        self.barrier_then_read_storms(db, lambda db: getattr(db, barrier)())

    @pytest.mark.parametrize("barrier", (
        lambda db: db.migrate_vertex("hot", 1),
        lambda db: (db.enable_demand_paging(), db.evict_vertex("hot")),
        lambda db: db.fail_shard(0),
        lambda db: db.fail_gatekeeper(2),
    ), ids=("migrate_vertex", "evict_vertex", "fail_shard",
            "fail_gatekeeper"))
    def test_in_process_barrier_then_read_storms(self, barrier):
        self.barrier_then_read_storms(deploy("weaver"), barrier)

    def test_process_recovery_then_read_storms(self, process_db):
        """A reused read against a dead worker fails as a fresh one
        does — by name, naming the channel — and after recovery the
        next read storms and is right."""
        db = process_db
        hot_and_cold(db)
        write(db, "hot", "n", 1)
        assert prop(db, "hot", "n") == 1
        db.kill_shard_worker(0)
        before = (storms(db), hits(db))
        with pytest.raises((ProgramError, TransportError), match="shard0"):
            prop(db, "hot", "n")
        # It was a reused read: nothing was stamped or sent for it.
        assert (storms(db), hits(db)) == (before[0], before[1] + 1)
        assert stamp_spans(db)[-1].attr("reused") is True
        db.recover_shard(0)
        assert prop(db, "hot", "n") == 1
        assert prop(db, "cold", "n") == 0
        assert (storms(db), hits(db)) == (before[0] + 1, before[1] + 2)


# -- a fresh stamp follows every write -------------------------------------------


@pytest.fixture(params=DEPLOYMENTS, name="lazy_db")
def lazy_db(request):
    """Gatekeepers that announce only every 64 commits, so writes stamped
    at different gatekeepers between two storms stay concurrent."""
    yield from _deployment(request, announce_every=64)


def oracle_messages(db):
    return db.oracle.stats.messages


class TestAFreshStampFollowsEveryWrite:
    """A storming read is stamped after the storm's leading announce, so
    every write acknowledged before it is ordered before it by vector
    clock and no program–transaction pair reaches the oracle."""

    def test_a_read_after_unannounced_writes_asks_the_oracle_nothing(
        self, lazy_db
    ):
        db = lazy_db
        hot_and_cold(db)                        # gk0, not announced
        assert prop(db, "hot", "n") == 0        # gk1 stamps
        write(db, "hot", "n", 1)                # gk2, after that storm
        assert prop(db, "cold", "n") == 0       # gk3 stamps
        assert prop(db, "hot", "n") == 1
        assert storms(db) == 2
        assert oracle_messages(db) == 0

    def test_every_stamp_is_ordered_with_every_write_by_vector_clock(
        self, lazy_db
    ):
        db = lazy_db
        hot_and_cold(db)
        issued = []
        for value in range(3):
            for gk in range(G):
                tx = db.begin_transaction(gatekeeper=gk)
                tx.set_property(("hot", "cold")[gk % 2], "n", value)
                issued.append(tx.commit())
            assert prop(db, "hot", "n") == value
            issued.append(db.checkpoint())
        stamps = [span.attr("ts") for span in stamp_spans(db)]
        assert len(stamps) == 3
        for stamp in stamps:
            assert all(
                ts.compare(stamp) is not Ordering.CONCURRENT
                for ts in issued
            )

    def test_only_transaction_pairs_reach_the_oracle(self, monkeypatch):
        db = deploy("weaver", announce_every=64)
        asked = []
        order = db.oracle.order

        def recorded(a, b, prefer=Ordering.BEFORE):
            asked.append((a.id, b.id))
            return order(a, b, prefer)

        monkeypatch.setattr(db.oracle, "order", recorded)
        hot_and_cold(db)
        for value in range(4):
            for gk in range(G):
                tx = db.begin_transaction(gatekeeper=gk)
                tx.set_property("hot", "n", value * G + gk)
                tx.commit()
            assert prop(db, "hot", "n") == value * G + G - 1
        # Writes at four gatekeepers between storms are concurrent, and
        # the oracle orders them; no program or heartbeat reaches it.
        writes = {
            span.attr("ts").id for span in db.tracer.spans(kind="store.commit")
        }
        assert asked
        assert all(a in writes and b in writes for a, b in asked)


# -- a traversal on a reused stamp -------------------------------------------

TREE = {
    "root": ("a", "b", "c"), "a": ("d", "e"), "b": ("f",), "c": (),
    "d": ("g",), "e": (), "f": (), "g": (),
}


def model_view(edges, handle):
    """A vertex of a plain ``{src: {edge: dst}}`` model as the view
    ``Bfs`` runs on: a handle, a state slot, property-less out-edges."""
    if handle not in edges:
        return None
    return SimpleNamespace(handle=handle, prog_state=None, neighbors=[
        SimpleNamespace(handle=edge, nbr=dst)
        for edge, dst in edges[handle].items()
    ])


def reference_bfs(edges, root, max_depth):
    return execute_sequential(
        Bfs(), [(root, params(edge_prop=None, depth=0, max_depth=max_depth))],
        lambda handle: model_view(edges, handle), None,
    ).results


class TestTraversalOnAReusedStamp:
    def test_both_shards_run_it_at_once(self, db):
        tx = db.begin_transaction()
        for handle in TREE:
            tx.create_vertex(handle)
        edges = {
            src: {tx.create_edge(src, dst): dst for dst in dsts}
            for src, dsts in TREE.items()
        }
        tx.commit()
        assert {db._shard_of(handle) for handle in TREE} == {0, 1}
        client = WeaverClient(db)
        assert client.get_node("root")["out_degree"] == 3
        started = time.monotonic()
        visited = client.traverse("root", max_depth=2)
        elapsed = time.monotonic() - started
        assert visited == reference_bfs(edges, "root", 2)
        assert "g" not in visited and len(visited) == 7
        assert (storms(db), hits(db)) == (1, 1)
        assert nops_sent(db) == G
        assert stamp_spans(db)[-1].attr("reused") is True
        # Nobody waited for heartbeats that were never coming.
        assert elapsed < ResidentEngine.READY_DEADLINE / 5
        if isinstance(db, ProcessWeaver):
            metrics = db.metrics.snapshot()
            assert metrics["program.resident.programs_participated"] >= 1
            assert metrics["program.resident.forwards_sent"] >= 1


# -- the referee checks the new path -------------------------------------------


def refereed_script(db):
    """commit / read / commit / read on one vertex, through the soak's
    tagged client; returns the end-of-run verdict."""
    history = History()
    history.attach(db.tracer)
    client = ProcessClient(db, SoakReport(seed=0, transport="direct"), 1,
                           0.0, seed=0)
    client.setup()
    for _ in range(2):
        client.write()
        client.read()
    return HistoryChecker(history, decided_order(db.oracle)).check()


class TestTheRefereeChecksReuse:
    def test_without_the_invalidation_the_referee_convicts(self):
        db = deploy("weaver")
        commit = db._commit_transaction

        def commit_without_retiring_the_stamp(tx):
            stamp = db._read_stamp
            try:
                return commit(tx)
            finally:
                db._read_stamp = stamp

        db._commit_transaction = commit_without_retiring_the_stamp
        violations = refereed_script(db)
        assert {v.kind for v in violations} == {"real-time-read"}
        assert storms(db) == 1

    def test_with_the_rule_the_same_script_is_clean(self):
        db = deploy("weaver")
        assert refereed_script(db) == []
        assert storms(db) == 2

    def test_process_soak_stays_clean(self):
        report = run_soak(3, transport="process", chunks=4)
        assert report.ok, report.violations
        assert report.recoveries == 1
        assert report.metrics["program.readiness_fastpath_hits"] >= 1


# -- at random ------------------------------------------------------------------

VERTICES = [f"v{i}" for i in range(6)]
vertex = st.sampled_from(VERTICES)


class ReadStampMachine(RuleBasedStateMachine):
    """Random writes, reads and barriers on a ``Weaver`` against a
    plain dict model.  ``dirty`` is the model of the rule: set by
    whatever must retire the read stamp, cleared by a current read —
    which must storm exactly when it is set."""

    def __init__(self):
        super().__init__()
        self.db = deploy("weaver")
        self.client = WeaverClient(self.db)
        self.props = {}             # vertex -> {key: value}
        self.edges = {}             # vertex -> {edge handle: dst}
        self.points = []            # (checkpoint, props then)
        self.dirty = True
        self.attempts = self.barriers = self.at_reads = 0

    @initialize()
    def two_vertices(self):
        for handle in VERTICES[:2]:
            self.create_vertex(handle)

    # -- writes ---------------------------------------------------------

    def commit(self, fill):
        self.attempts += 1
        self.dirty = True
        tx = self.db.begin_transaction()
        fill(tx)
        tx.commit()

    @rule(handle=vertex)
    def create_vertex(self, handle):
        if handle in self.props:
            return
        self.commit(lambda tx: tx.create_vertex(handle))
        self.props[handle] = {}
        self.edges[handle] = {}

    @rule(src=vertex, dst=vertex)
    def create_edge(self, src, dst):
        if src not in self.props or dst not in self.props:
            return
        made = []
        self.commit(lambda tx: made.append(tx.create_edge(src, dst)))
        self.edges[src][made[0]] = dst

    @rule(handle=vertex, key=st.sampled_from("ab"), value=st.integers(0, 9))
    def set_property(self, handle, key, value):
        if handle not in self.props:
            return
        self.commit(lambda tx: tx.set_property(handle, key, value))
        self.props[handle][key] = value

    @rule(src=vertex, data=st.data())
    def delete_edge(self, src, data):
        if not self.edges.get(src):
            return
        edge = data.draw(st.sampled_from(sorted(self.edges[src])))
        self.commit(lambda tx: tx.delete_edge(src, edge))
        del self.edges[src][edge]

    @rule(handle=vertex)
    def aborted_commit(self, handle):
        if handle not in self.props:
            return
        loser = self.db.begin_transaction()
        loser.set_property(handle, "a", "lost")
        self.set_property(handle, "a", 0)
        self.attempts += 1
        self.dirty = True
        with pytest.raises(TransactionAborted):
            loser.commit()

    # -- current reads --------------------------------------------------

    def current_read(self, read):
        before = storms(self.db)
        answer = read()
        assert storms(self.db) - before == int(self.dirty)
        self.dirty = False
        return answer

    @rule(handle=vertex)
    def get_node(self, handle):
        if handle not in self.props:
            return
        node = self.current_read(lambda: self.client.get_node(handle))
        assert node["properties"] == self.props[handle]
        assert node["out_degree"] == len(self.edges[handle])

    @rule(handle=vertex)
    def get_edges(self, handle):
        if handle not in self.props:
            return
        found = self.current_read(lambda: self.client.get_edges(handle))
        assert [(e["handle"], e["nbr"]) for e in found] == list(
            self.edges[handle].items()
        )

    @rule(handle=vertex)
    def count_edges(self, handle):
        if handle not in self.props:
            return
        count = self.current_read(lambda: self.client.count_edges(handle))
        assert count == len(self.edges[handle])

    @rule(handle=vertex)
    def traverse(self, handle):
        if handle not in self.props:
            return
        visited = self.current_read(
            lambda: self.client.traverse(handle, max_depth=2)
        )
        assert visited == reference_bfs(self.edges, handle, 2)

    # -- historical reads -----------------------------------------------

    @rule()
    def checkpoint(self):
        self.points.append((self.db.checkpoint(), copy.deepcopy(self.props)))

    @precondition(lambda self: self.points)
    @rule(handle=vertex, data=st.data())
    def read_at_checkpoint(self, handle, data):
        point, then = data.draw(st.sampled_from(self.points))
        if handle not in then:
            return
        self.at_reads += 1
        before = storms(self.db)
        node = self.client.get_node(handle, at=point)
        assert node["properties"] == then[handle]
        if storms(self.db) > before:    # it moved the mark
            self.dirty = True

    # -- barriers -------------------------------------------------------

    @rule()
    def drain(self):
        self.db.drain()
        self.barriers += 1
        self.dirty = True

    @rule()
    def collect_garbage(self):
        self.db.collect_garbage()
        self.points.clear()         # history below the watermark is gone
        self.barriers += 1
        self.dirty = True

    @rule(handle=vertex, to_shard=st.integers(0, S - 1))
    def migrate(self, handle, to_shard):
        if handle in self.props and self.db.migrate_vertex(handle, to_shard):
            self.barriers += 1
            self.dirty = True

    # -- the bound ------------------------------------------------------

    @invariant()
    def storms_are_bounded_by_what_happened(self):
        # An `at=` read past the mark storms itself and, having moved
        # the mark, costs the next current read a storm as well.
        assert storms(self.db) <= (
            self.attempts + self.barriers + 2 * self.at_reads + 1
        )


TestReadStampMachine = ReadStampMachine.TestCase
TestReadStampMachine.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None
)
