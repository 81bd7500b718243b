"""Reads ride the ready stamp: ``WritePath._stamp_program`` reuses the
stamp it last issued — no timestamp, heartbeat or frame — while that
stamp is still the readiness mark and no commit has been attempted
since, or, for a program declaring ``reads_only_start``, none has
written one of its start vertices (after at most one announce round);
anything else stamps afresh and storms.

The rule is one decision in ``db/database.py``
(``WritePath._reuses_read_stamp``); this file is its proof by
cases.  Deterministic, on the in-process :class:`Weaver` and on a
2-worker :class:`ProcessWeaver` (test ids carry ``process`` so CI's
transport job can select them): the counts of a
quiet stretch, every source of invalidation, the ``at=`` read that must
not become the reusable stamp, a dead worker, a traversal on a reused
stamp, a local read past writes to other vertices, and the declaration
refused on every host.  Random: a ``hypothesis`` state machine against
a dict model, in which every current read storms exactly when the
model says something happened.  Referee: the rule with its per-vertex
invalidation patched out is convicted by ``HistoryChecker``, on
``Weaver`` and in a seeded chaos run on the twin; the real one, the
same chaos run and a process-transport soak that reuses stamps across
commits are not.
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
from repro.db import operations as ops
from repro.errors import ProgramError, TransactionAborted
from repro.programs.library import (
    PROGRAM_REGISTRY, Bfs, CountEdges, GetEdges, GetNode, params,
)
from repro.programs.caching import ChangeTracker
from repro.sim.clock import MSEC
from repro.sim.deployment import SimulatedWeaver
from repro.verify.history import History, HistoryChecker, decided_order
from repro.workloads.chaos import (
    ProcessClient, SoakReport, run_chaos, run_soak,
)

from .reference_executor import execute_sequential
from .test_sim_deployment import commit as sim_commit

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
    return db.metrics.snapshot()["oracle.messages"]


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


# -- a local read rides past writes it cannot see -----------------------------


@pytest.fixture(name="announces")
def announces(monkeypatch):
    """Every announce round the coordinator runs: each goes through
    ``db/database.py``'s ``sync_announce_all``."""
    from repro.db import database

    rounds = []
    real = database.sync_announce_all

    def counted(gatekeepers):
        rounds.append(len(gatekeepers))
        return real(gatekeepers)

    monkeypatch.setattr(database, "sync_announce_all", counted)
    return rounds


def crossed(db):
    return db.executor.stats.readiness_reuses_across_commits


def create(db, handle):
    tx = db.begin_transaction()
    tx.create_vertex(handle)
    tx.set_property(handle, "n", 0)
    tx.commit()


BOTH = [("hot", None), ("cold", None)]


def both_props(db):
    results = db.run_program(GetNode(), BOTH).results
    return [node["properties"]["n"] for node in results]


class TestALocalReadRidesPastOtherWrites:
    """``GetNode``, ``GetEdges`` and ``CountEdges`` declare
    ``reads_only_start``: such a read reuses the stamp unless a commit
    attempted since it was issued wrote one of its start vertices, and
    announces once first if a commit has not been announced yet."""

    def test_after_commits_to_other_vertices_it_reuses_the_stamp(
        self, lazy_db, announces
    ):
        db = lazy_db
        hot_and_cold(db)
        assert prop(db, "hot", "n") == 0
        for value in range(1, 4):
            write(db, "cold", "n", value)
        del announces[:]
        assert prop(db, "hot", "n") == 0
        assert db.run_program(CountEdges(), "hot").value == 0
        assert db.run_program(GetEdges(), "hot").value == []
        assert (storms(db), hits(db), crossed(db)) == (1, 3, 3)
        assert nops_sent(db) == G
        # One round before the first reuse, none once it is announced.
        assert announces == [G]
        first, *reused = stamp_spans(db)
        assert [span.attr("ts") for span in reused] == [first.attr("ts")] * 3
        assert all(span.attr("reused") is True for span in reused)
        # The written vertex is another matter.
        assert prop(db, "cold", "n") == 3
        assert storms(db) == 2

    def test_a_commit_that_announced_leaves_nothing_to_announce(
        self, db, announces
    ):
        hot_and_cold(db)                    # announce_every=1
        assert prop(db, "hot", "n") == 0
        write(db, "cold", "n", 1)
        del announces[:]
        assert prop(db, "hot", "n") == 0
        assert announces == []
        assert (storms(db), crossed(db)) == (1, 1)

    def test_after_a_commit_to_its_start_vertex_it_storms(self, lazy_db):
        db = lazy_db
        hot_and_cold(db)
        assert prop(db, "hot", "n") == 0
        write(db, "hot", "n", 1)
        assert prop(db, "hot", "n") == 1
        assert (storms(db), crossed(db)) == (2, 0)
        assert "reused" not in stamp_spans(db)[-1].attrs_dict()

    @pytest.mark.parametrize("written", ("hot", "cold"))
    def test_a_commit_to_any_one_start_vertex_storms(self, lazy_db, written):
        db = lazy_db
        hot_and_cold(db)
        create(db, "other")
        assert both_props(db) == [0, 0]
        write(db, "other", "n", 1)
        assert both_props(db) == [0, 0]
        assert (storms(db), crossed(db)) == (1, 1)
        write(db, written, "n", 2)
        assert both_props(db) == [2 if h == written else 0 for h, _ in BOTH]
        assert (storms(db), crossed(db)) == (2, 1)

    def test_a_bfs_after_any_commit_storms(self, lazy_db):
        db = lazy_db
        hot_and_cold(db)
        create(db, "other")
        assert prop(db, "hot", "n") == 0
        write(db, "other", "n", 1)
        traversal = db.run_program(Bfs(), "hot", params(depth=0))
        assert traversal.results == ["hot"]
        assert (storms(db), crossed(db)) == (2, 0)
        # Nothing attempted since the traversal's storm: a plain reuse.
        assert prop(db, "hot", "n") == 0
        assert (storms(db), hits(db), crossed(db)) == (2, 1, 0)


class HoppingGetNode(GetNode):
    """``GetNode`` breaking its declaration: it returns one hop, back to
    itself (so that, unrefused, it ends after two visits)."""

    name = "hopping_get_node"

    def run(self, node, params, ctx):
        super().run(node, params, ctx)
        return () if params == "again" else [(node.handle, "again")]


@pytest.fixture(name="hopping")
def hopping():
    """``HoppingGetNode`` in the registry before any worker forks."""
    PROGRAM_REGISTRY[HoppingGetNode.name] = HoppingGetNode
    yield HoppingGetNode
    del PROGRAM_REGISTRY[HoppingGetNode.name]


REFUSED = "hopping_get_node declares reads_only_start and returned a next-hop"


class TestTheDeclarationIsEnforced:
    """``run_round`` fails the query of a ``reads_only_start`` program
    that returns a hop, so every host refuses it by the program's name
    and goes on serving."""

    @pytest.mark.parametrize("kind", DEPLOYMENTS)
    def test_a_hop_fails_the_query(self, hopping, kind):
        db = deploy(kind)
        try:
            hot_and_cold(db)
            with pytest.raises(ProgramError, match=REFUSED):
                db.run_program(hopping(), "hot")
            assert prop(db, "hot", "n") == 0
        finally:
            if isinstance(db, ProcessWeaver):
                db.close()

    def test_a_hop_fails_the_query_on_the_twin(self, hopping):
        sw = SimulatedWeaver(WeaverConfig(num_gatekeepers=G, num_shards=S))
        assert sim_commit(sw, [ops.CreateVertex("hot")])["ok"]
        sw.submit_program(hopping(), "hot")
        with pytest.raises(ProgramError, match=REFUSED):
            sw.run_until_quiet()


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
    def test_without_the_invalidation_the_referee_convicts(
        self, monkeypatch
    ):
        """The per-vertex invalidation patched out: every start vertex
        reads as unwritten since the stamp, so a read of the vertex just
        written rides the stamp from before the write."""
        db = deploy("weaver")
        monkeypatch.setattr(
            db.changes, "unchanged_since", lambda vertices, attempt: True
        )
        violations = refereed_script(db)
        assert {v.kind for v in violations} == {"real-time-read"}
        assert storms(db) == 1

    def test_with_the_rule_the_same_script_is_clean(self):
        db = deploy("weaver")
        assert refereed_script(db) == []
        assert storms(db) == 2

    def test_on_the_twin_without_the_invalidation_the_referee_convicts(
        self, monkeypatch
    ):
        """The twin takes the same rule, so the same mutation is caught
        by a seeded chaos run: 29 of seeds 1-30 report a violation
        (seed 21 misses, a miss rate of 1/30)."""
        monkeypatch.setattr(
            ChangeTracker, "unchanged_since",
            lambda self, vertices, attempt: True,
        )
        report = run_chaos(1, duration=20 * MSEC)
        assert {v.kind for v in report.violations} == {"real-time-read"}

    def test_on_the_twin_with_the_rule_the_same_run_is_clean(self):
        report = run_chaos(1, duration=20 * MSEC)
        assert report.violations == []
        assert report.metrics["program.readiness_reuses_across_commits"] >= 1

    def test_process_soak_stays_clean(self):
        report = run_soak(3, transport="process", chunks=4)
        assert report.ok, report.violations
        assert report.recoveries == 1
        assert report.metrics["program.readiness_fastpath_hits"] >= 1
        assert report.metrics["program.readiness_reuses_across_commits"] >= 1


# -- at random ------------------------------------------------------------------

VERTICES = [f"v{i}" for i in range(6)]
vertex = st.sampled_from(VERTICES)


class ReadStampMachine(RuleBasedStateMachine):
    """Random writes, reads and barriers on a ``Weaver`` against a
    plain dict model.  The model of the rule: ``dirty`` is set by
    whatever must retire the read stamp, ``attempted`` by any commit
    attempt since the stamp was issued and ``written`` collects what
    those attempts wrote.  A current read must storm exactly when
    ``dirty`` is set or, for a traversal, ``attempted``, or, for a read
    of one vertex, that vertex is ``written``; a storm clears all
    three."""

    def __init__(self):
        super().__init__()
        self.db = deploy("weaver")
        self.client = WeaverClient(self.db)
        self.props = {}             # vertex -> {key: value}
        self.edges = {}             # vertex -> {edge handle: dst}
        self.points = []            # (checkpoint, props then)
        self.dirty = True
        self.attempted = False
        self.written = set()
        self.crossed = 0            # reuses past a commit attempt
        self.attempts = self.barriers = self.at_reads = 0

    @initialize()
    def two_vertices(self):
        for handle in VERTICES[:2]:
            self.create_vertex(handle)

    # -- writes ---------------------------------------------------------

    def attempt(self, vertex):
        self.attempts += 1
        self.attempted = True
        self.written.add(vertex)

    def commit(self, vertex, fill):
        """A commit that writes ``vertex`` (an edge's source)."""
        self.attempt(vertex)
        tx = self.db.begin_transaction()
        fill(tx)
        tx.commit()

    @rule(handle=vertex)
    def create_vertex(self, handle):
        if handle in self.props:
            return
        self.commit(handle, lambda tx: tx.create_vertex(handle))
        self.props[handle] = {}
        self.edges[handle] = {}

    @rule(src=vertex, dst=vertex)
    def create_edge(self, src, dst):
        if src not in self.props or dst not in self.props:
            return
        made = []
        self.commit(src, lambda tx: made.append(tx.create_edge(src, dst)))
        self.edges[src][made[0]] = dst

    @rule(handle=vertex, key=st.sampled_from("ab"), value=st.integers(0, 9))
    def set_property(self, handle, key, value):
        if handle not in self.props:
            return
        self.commit(handle, lambda tx: tx.set_property(handle, key, value))
        self.props[handle][key] = value

    @rule(src=vertex, data=st.data())
    def delete_edge(self, src, data):
        if not self.edges.get(src):
            return
        edge = data.draw(st.sampled_from(sorted(self.edges[src])))
        self.commit(src, lambda tx: tx.delete_edge(src, edge))
        del self.edges[src][edge]

    @rule(handle=vertex)
    def aborted_commit(self, handle):
        if handle not in self.props:
            return
        loser = self.db.begin_transaction()
        loser.set_property(handle, "a", "lost")
        self.set_property(handle, "a", 0)
        self.attempt(handle)
        with pytest.raises(TransactionAborted):
            loser.commit()

    # -- current reads --------------------------------------------------

    def current_read(self, read, local_to=None):
        """``read()``, of vertex ``local_to`` alone or, with None, of
        whatever a traversal reaches."""
        before = storms(self.db)
        answer = read()
        if local_to is None:
            storm = self.dirty or self.attempted
        else:
            storm = self.dirty or local_to in self.written
        assert storms(self.db) - before == int(storm)
        if storm:
            self.dirty = self.attempted = False
            self.written = set()
        elif self.attempted:
            self.crossed += 1
        assert crossed(self.db) == self.crossed
        return answer

    @rule(handle=vertex)
    def get_node(self, handle):
        if handle not in self.props:
            return
        node = self.current_read(
            lambda: self.client.get_node(handle), handle
        )
        assert node["properties"] == self.props[handle]
        assert node["out_degree"] == len(self.edges[handle])

    @rule(handle=vertex)
    def get_edges(self, handle):
        if handle not in self.props:
            return
        found = self.current_read(
            lambda: self.client.get_edges(handle), handle
        )
        assert [(e["handle"], e["nbr"]) for e in found] == list(
            self.edges[handle].items()
        )

    @rule(handle=vertex)
    def count_edges(self, handle):
        if handle not in self.props:
            return
        count = self.current_read(
            lambda: self.client.count_edges(handle), handle
        )
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
