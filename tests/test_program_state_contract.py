"""Program state stays at the shard — one rule, three hosts.

``ProgramResult.states`` holds per-vertex ``prog_state`` only for a
program that declares ``returns_state``.  The rule is stated where a
result is made (``programs/framework.py:ProgramResult``) and applied
before a fragment leaves its shard (``ResidentEngine._fragment``), so it
must read the same on the in-process ``Weaver``, on ``ProcessWeaver``
and on the simulated host:

* every registry program that does not declare it returns
  ``states == {}`` on all three (the one that does, ``PushPageRank``,
  is under (b));
* a declaring program returns equal state *values* on all three, also
  when it halted on another shard and the root's shard ran entries the
  gather drops;
* a value the wire refuses — emitted, declared as state, or sent as a
  hop's params across shards (or, at the client, as the start's) —
  fails *its query* with a ``ProgramError`` naming the type, and both
  workers keep serving.

CI's transport-smoke selects the whole module (``-k state_contract``).
"""

from __future__ import annotations

import contextlib
from types import SimpleNamespace

import pytest

from repro.cluster.process import ProcessWeaver
from repro.db import Weaver, WeaverConfig
from repro.db import operations as ops
from repro.errors import ProgramError
from repro.programs.analytics import PushPageRank
from repro.programs.framework import NodeProgram
from repro.programs.library import (
    PROGRAM_REGISTRY,
    Bfs,
    GetNode,
    Reachability,
    params,
)
from repro.sim.clock import USEC
from repro.sim.deployment import SimulatedWeaver
from tests.test_program_resident import (
    POOL,
    entries_processed,
    halting_edges,
    pagerank,
    pagerank_edges,
    split_pool,
)
from tests.test_sim_deployment import (
    PROGRAM_PARAMS,
    build_program,
    commit,
    seeded_edges,
)

HOSTS = ["weaver", "process", "sim"]


class Hosts:
    """The same vertices, then the same edges, in three deployments;
    ``run`` asks one of them."""

    def __init__(self, handles, **overrides):
        def config():
            return WeaverConfig(
                num_gatekeepers=2, num_shards=2, partitioner="hash",
                **overrides,
            )

        self.weaver = Weaver(config())
        self.process = ProcessWeaver(config())
        self.sim = SimulatedWeaver(
            config(), tau=200 * USEC, nop_period=100 * USEC
        )
        self._commit([ops.CreateVertex(handle) for handle in handles])

    def link(self, edges):
        self._commit([
            ops.CreateEdge(f"edge{i}", src, dst)
            for i, (src, dst) in enumerate(edges)
        ])
        self.process.drain()

    def _commit(self, operations):
        for db in (self.weaver, self.process):
            tx = db.begin_transaction()
            for op in operations:
                tx.record(op)
            tx.commit()
        assert commit(self.sim, operations)["ok"]

    def run(self, host, program, start, prog_params):
        if host == "sim":
            box = {}
            self.sim.submit_program(
                program, start, prog_params,
                callback=lambda r: box.update(r=r),
            )
            self.sim.run_until_quiet()
            return box["r"]
        return getattr(self, host).run_program(program, start, prog_params)


@contextlib.contextmanager
def hosts(handles, **overrides):
    built = Hosts(handles, **overrides)
    try:
        yield built
    finally:
        built.process.close()


@contextlib.contextmanager
def pool_hosts(edges_for, registered=()):
    """The pool's vertices and ``edges_for(shard_of)``'s edges on every
    host; yields ``(hosts, what edges_for returned after the edges)``.
    ``registered`` classes join the registry before the workers fork."""
    added = {cls.name: cls for cls in registered}
    PROGRAM_REGISTRY.update(added)
    try:
        with hosts(POOL) as built:
            shard_of = built.process._shard_of
            for handle in POOL:  # the roles mean the same everywhere
                assert (
                    shard_of(handle)
                    == built.weaver._shard_of(handle)
                    == built.sim.mapping.lookup(handle)
                )
            edges, *roles = edges_for(shard_of)
            built.link(edges)
            yield built, roles
    finally:
        for name in added:
            del PROGRAM_REGISTRY[name]


# -- (a) nobody who did not ask gets state --------------------------------


@pytest.fixture(scope="module", params=[3, 21, 99], ids="seed{}".format)
def seeded(request):
    """A differential graph (``test_sim_deployment.seeded_edges``)."""
    handles, edges = seeded_edges(request.param)
    with hosts(handles) as built:
        built.link(edges)
        yield built, handles


@pytest.mark.parametrize("host", HOSTS)
@pytest.mark.parametrize("name", sorted(
    name for name, cls in PROGRAM_REGISTRY.items() if not cls.returns_state
))
def test_a_registry_program_returns_no_state(seeded, name, host):
    built, handles = seeded
    prog_params = PROGRAM_PARAMS.get(name, lambda h: None)(handles)
    result = built.run(host, build_program(name), handles[0], prog_params)
    assert result.vertices_visited >= 1
    assert result.states == {}


# -- (b) who asked gets the same values everywhere ------------------------


class MarkedReachability(Reachability):
    """``Reachability`` whose caller reads the visited marks."""

    name = "marked_reachability"
    returns_state = True


class TestDeclaredStateIsTheSameEverywhere:
    def test_after_a_halt_on_another_shard(self):
        with pool_hosts(halting_edges, [MarkedReachability]) as (
            built, (root, target, unread)
        ):
            prm = params(target=target)
            reference = built.run("weaver", MarkedReachability(), root, prm)
            assert reference.halted
            # Every vertex read has state: all marked but the target,
            # which halts before it marks itself.
            assert sorted(reference.states) == sorted(reference.read_set)
            assert len(reference.states) == 8
            assert [
                h for h, s in reference.states.items() if not s.visited
            ] == [target]
            assert not unread & set(reference.states)
            before = entries_processed(built.process)
            for host in HOSTS[1:]:
                result = built.run(host, MarkedReachability(), root, prm)
                assert result.states == reference.states, host
                assert result.results == reference.results, host
            # The root's worker ran entries ordered after the halt and
            # made state for them; ``_fragment`` kept it there.
            ran = entries_processed(built.process) - before
            assert ran > reference.vertices_visited

    def test_ranks_and_residuals_of_a_revisiting_program(self):
        with pool_hosts(pagerank_edges) as (built, (root,)):
            prm = params(mass=1.0)
            reference = built.run("weaver", pagerank(), root, prm)
            assert reference.vertices_visited > 10 * len(reference.states)
            assert all(
                vars(state).keys() == {"rank", "residual"}
                for state in reference.states.values()
            )
            for host in HOSTS[1:]:
                result = built.run(host, pagerank(), root, prm)
                # Same pushes in the same order: identical floats.
                assert result.states == reference.states, host
                assert PushPageRank.scores(result) == PushPageRank.scores(
                    reference
                )


# -- (c) a value the wire refuses fails its query, not its shard ----------

UNENCODABLE = 1 + 2j


class EmitsAtTheLeaf(NodeProgram):
    """Hops once, then emits a value the wire cannot carry."""

    name = "emits_at_the_leaf"

    def run(self, node, prm, ctx):
        if prm.hops_left:
            return [(edge.nbr, params(hops_left=prm.hops_left - 1))
                    for edge in node.neighbors]
        ctx.emit(UNENCODABLE)
        return ()


class ForwardsUnencodableParams(NodeProgram):
    name = "forwards_unencodable_params"

    def run(self, node, prm, ctx):
        return [(edge.nbr, SimpleNamespace(z=UNENCODABLE))
                for edge in node.neighbors if prm is None]


class DeclaresUnencodableState(NodeProgram):
    name = "declares_unencodable_state"
    returns_state = True

    def init_state(self):
        return UNENCODABLE

    def run(self, node, prm, ctx):
        return ()


def one_edge_away(shard_of):
    root, _here, there = split_pool(shard_of)
    return [(root, there[0])], root, there[0]


UNENCODABLE_CASES = {
    # name: (program, start params); the start is always the root.
    "emitted_at_the_coordinator": (EmitsAtTheLeaf, params(hops_left=0)),
    "emitted_at_a_participant": (EmitsAtTheLeaf, params(hops_left=1)),
    "hop_params_on_a_forward": (ForwardsUnencodableParams, None),
    "declared_state": (DeclaresUnencodableState, None),
    # Refused at the client: the request frame is never written, and
    # the heartbeats it would have carried stay buffered for the next.
    "start_params": (Bfs, params(depth=0, z=UNENCODABLE)),
}


@pytest.fixture(scope="class")
def two_workers():
    with pool_hosts(one_edge_away, [
        EmitsAtTheLeaf, ForwardsUnencodableParams, DeclaresUnencodableState,
    ]) as (built, roles):
        yield built.process, roles


class TestUnencodableValueFailsItsQuery:
    @pytest.mark.parametrize("case", sorted(UNENCODABLE_CASES))
    def test_unencodable(self, two_workers, case):
        db, (root, leaf) = two_workers
        assert db._shard_of(root) != db._shard_of(leaf)
        pids = {index: proc.pid for index, proc in db._procs.items()}
        cls, prm = UNENCODABLE_CASES[case]
        with pytest.raises(ProgramError, match="complex"):
            db.run_program(cls(), root, prm)
        # Both shards answer the next read, from the same processes,
        # and a program over both of them still runs.
        for handle in (root, leaf):
            assert db.run_program(GetNode(), handle).value["handle"] == handle
        assert db.run_program(Bfs(), root, params(depth=0)).results == [
            root, leaf,
        ]
        assert all(proc.is_alive() for proc in db._procs.values())
        assert {i: proc.pid for i, proc in db._procs.items()} == pids
