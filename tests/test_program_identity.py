"""A program on the wire is ``(name, init)`` — one rule, every host.

``init`` is the instance's own ``vars()``; a shard rebuilds the program
as ``PROGRAM_REGISTRY[name](**init)``.  That pair is the program's whole
identity wherever one is needed:

* the program cache keys on it (``ProgramCache.key``), in the client of
  the in-process ``Weaver`` and at the coordinating shard of a
  ``ProcessWeaver``: two instances of one class never share an entry;
* what cannot be shipped that way is refused *by name* at submit — or
  by the worker, for a class its own registry has never heard of — and
  every worker keeps serving;
* there is no second way to run a program on the process deployment:
  the image-pull names are gone from the modules, the shard endpoint no
  longer knows the message, the option that chose has one value.
"""

from __future__ import annotations

import pytest

from repro.cluster import messages, process, worker
from repro.cluster.shard import ShardServer
from repro.core.oracle import TimelineOracle
from repro.db import WeaverConfig
from repro.db import operations as ops
from repro.errors import ConfigError, ProgramError, WeaverError
from repro.programs.analytics import WeightedShortestPath
from repro.programs.library import PROGRAM_REGISTRY, Bfs, GetNode, params
from tests.test_program_state_contract import (
    HOSTS,
    hosts,
    one_edge_away,
    pool_hosts,
)

# -- the cache keys on (name, init) ---------------------------------------

#: a→b→c costs 1+1 and takes 9+9; a→c costs 5 and takes 3.
PRICED_EDGES = [
    ("a", "b", 1.0, 9.0), ("b", "c", 1.0, 9.0), ("a", "c", 5.0, 3.0),
]


@pytest.fixture(scope="module")
def priced():
    with hosts("abc", enable_program_cache=True) as built:
        built.link([(src, dst) for src, dst, _cost, _lat in PRICED_EDGES])
        built._commit([
            ops.SetEdgeProperty(src, f"edge{i}", key, value)
            for i, (src, _dst, cost, lat) in enumerate(PRICED_EDGES)
            for key, value in (("cost", cost), ("lat", lat))
        ])
        built.process.drain()
        yield built


@pytest.mark.parametrize("host", HOSTS)
def test_instances_of_one_class_do_not_share_a_cache_entry(priced, host):
    def distance(weight_prop):
        program = WeightedShortestPath(weight_prop)
        if host == "sim":  # hosts no cache: the instance state must arrive
            result = priced.run(host, program, "a", params(target="c"))
        else:
            result = getattr(priced, host).run_program(
                program, "a", params(target="c"), use_cache=True
            )
        return WeightedShortestPath.distance(result)

    assert distance("cost") == 2.0
    assert distance("lat") == 3.0
    assert distance("cost") == 2.0
    if host != "sim":
        tracer = getattr(priced, host).tracer
        hits = [
            span.attr("cache_hit")
            for span in tracer.spans(kind="program.complete")[-3:]
        ]
        assert hits == [None, None, True]


# -- refusals fail by name, workers alive ----------------------------------

UNENCODABLE = 1 + 2j


class Unregistered(Bfs):
    name = "unregistered_bfs"


class ImpostorBfs(Bfs):
    """Carries a registered name; is not the registered class."""


class RenamesItsArgument(Bfs):
    name = "renames_its_argument"

    def __init__(self, flavor):
        self._flavor = flavor


class DoublesItsArgument(Bfs):
    name = "doubles_its_argument"

    def __init__(self, k):
        self.k = 2 * k


class Configured(Bfs):
    name = "configured_bfs"

    def __init__(self, flavor):
        self.flavor = flavor


class RegisteredLate(Bfs):
    name = "registered_late"


REGISTERED_BEFORE_THE_FORK = [
    RenamesItsArgument, DoublesItsArgument, Configured,
]

REFUSALS = {
    # name: (program, the refusal's text)
    "class_not_in_the_registry": (
        Unregistered, "Unregistered is not registered as 'unregistered_bfs'"
    ),
    "another_class_under_a_registered_name": (
        ImpostorBfs, "ImpostorBfs is not registered as 'bfs'"
    ),
    "vars_the_constructor_does_not_take": (
        lambda: RenamesItsArgument("x"),
        "'renames_its_argument' cannot be shipped as its vars().*_flavor",
    ),
    "vars_that_rebuild_another_instance": (
        lambda: DoublesItsArgument(2),
        r"'doubles_its_argument' do not rebuild it: \{'k': 8\} != \{'k': 4\}",
    ),
    "init_the_wire_refuses": (
        lambda: Configured(UNENCODABLE),
        "'configured_bfs' cannot be shipped as its vars().*complex",
    ),
    "registered_after_the_workers_forked": (
        RegisteredLate, "unknown program 'registered_late'"
    ),
}


@pytest.fixture(scope="module")
def serving():
    """Every host over one edge that crosses shards: ``(hosts, (root,
    leaf))``."""
    with pool_hosts(one_edge_away, REGISTERED_BEFORE_THE_FORK) as served:
        yield served


# The simulated shards share the client's registry: no fork, no skew.
REFUSED_ON = [
    (case, host) for case in sorted(REFUSALS) for host in HOSTS[1:]
    if (case, host) != ("registered_after_the_workers_forked", "sim")
]


@pytest.mark.parametrize(
    "case, host", REFUSED_ON, ids=["-".join(pair) for pair in REFUSED_ON]
)
def test_refusal_fails_by_name_and_the_workers_stay_up(
    serving, case, host, monkeypatch
):
    make, text = REFUSALS[case]
    if case == "registered_after_the_workers_forked":
        monkeypatch.setitem(
            PROGRAM_REGISTRY, RegisteredLate.name, RegisteredLate
        )
    built, (root, leaf) = serving
    procs = built.process._procs
    pids = {index: proc.pid for index, proc in procs.items()}
    with pytest.raises(ProgramError, match=text):
        built.run(host, make(), root, params(depth=0))
    assert not built.sim._submitted and not built.sim._stamped
    # Both shards answer the next read, from the same processes, and a
    # program over both of them — with instance state — still runs.
    for handle in (root, leaf):
        read = built.run(host, GetNode(), handle, None)
        assert read.value["handle"] == handle
    result = built.run(host, Configured("x"), root, params(depth=0))
    assert result.results == [root, leaf]
    assert {i: proc.pid for i, proc in procs.items()} == pids
    assert all(proc.is_alive() for proc in procs.values())


# -- the process deployment has one program model ---------------------------


def test_the_process_deployment_has_one_program_model():
    for module, gone in (
        (process, ("RemoteEdgeView", "RemoteVertexView",
                   "ProcessShardResolver", "resident_eligible")),
        (worker, ("_vertex_image", "ProgramRequest")),
        (messages, ("ProgramRequest",)),
    ):
        for name in gone:
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(process.ProcessWeaver, "_run_resident")
    endpoint = worker.ShardEndpoint(ShardServer(0, 1, TimelineOracle()))
    for gone in ("_resolve", "_queries", "resolver"):
        assert not hasattr(endpoint, gone), gone
    for kind in ("resolve", "finish"):
        with pytest.raises(WeaverError, match="unknown shard message"):
            endpoint.deliver(None, kind, None)
    with pytest.raises(ConfigError, match="program_execution='images'"):
        WeaverConfig(program_execution="images")
    assert WeaverConfig(program_execution="resident") == WeaverConfig()
