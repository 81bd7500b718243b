"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.gatekeeper import Gatekeeper, sync_announce_all
from repro.db import Weaver, WeaverClient, WeaverConfig


@pytest.fixture
def db():
    """A small two-gatekeeper, two-shard deployment."""
    return Weaver(WeaverConfig(num_gatekeepers=2, num_shards=2))


@pytest.fixture
def client(db):
    return WeaverClient(db)


@pytest.fixture
def gatekeepers():
    """Three bare gatekeepers sharing a cluster size (no store)."""
    return [Gatekeeper(i, 3) for i in range(3)]


def announce(gatekeepers):
    sync_announce_all(gatekeepers)


@pytest.fixture
def triangle(client):
    """A 3-vertex directed triangle a->b->c->a with an extra a->c edge."""
    with client.transaction() as tx:
        for name in ("a", "b", "c"):
            tx.create_vertex(name)
        tx.create_edge("a", "b", "ab")
        tx.create_edge("b", "c", "bc")
        tx.create_edge("c", "a", "ca")
        tx.create_edge("a", "c", "ac")
    return client


@pytest.fixture
def soak_twin(monkeypatch):
    """Give every soak referee an unpruned twin, checked on every prefix.

    What the soak harness's offline History used to guard, as a test:
    the twin is a second ``OnlineChecker`` on the same tracer that is
    never handed a ``gc.watermark``; after every span its digest must
    equal the soak's own referee's.  Returns a dict with the ``twin``,
    the ``prefixes`` compared and the watermarks ``withheld``.
    """
    from repro.verify.history import decided_order
    from repro.verify.online import OnlineChecker
    from repro.workloads import chaos

    seen = {"prefixes": 0, "withheld": 0}

    class Twinned(chaos._SoakReferee):
        def __init__(self, db, report):
            super().__init__(db, report)
            twin = seen["twin"] = OnlineChecker(decided_order(db.oracle))

            def sink(span):
                if span.kind == "gc.watermark":
                    seen["withheld"] += 1
                else:
                    twin.consume(span)
                assert twin.digest() == self.checker.digest(), span
                seen["prefixes"] += 1

            db.tracer.add_sink(sink)

    monkeypatch.setattr(chaos, "_SoakReferee", Twinned)
    return seen
