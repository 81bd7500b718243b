"""A Python reproduction of Weaver (Dubey et al., VLDB 2016).

Weaver is a distributed, transactional, multi-version property-graph
database whose core contribution is **refinable timestamps**: vector
clocks order most transactions proactively, and a centralized timeline
oracle refines the order of the few concurrent, conflicting ones.

Quickstart::

    from repro import Weaver, WeaverClient, WeaverConfig

    db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=2))
    client = WeaverClient(db)

    with client.transaction() as tx:
        alice = tx.create_vertex("alice")
        bob = tx.create_vertex("bob")
        tx.create_edge(alice, bob, "follows")

    assert client.reachable("alice", "bob")
"""

from .errors import (
    ClusterError,
    CycleError,
    GarbageCollectedError,
    NoSuchEdge,
    NoSuchVertex,
    OrderingError,
    ProgramError,
    StoreError,
    TransactionAborted,
    TransactionError,
    WeaverError,
)
from .core import (
    Gatekeeper,
    Ordering,
    RefinableOrdering,
    TimelineOracle,
    VectorClock,
    VectorTimestamp,
)
from .db import Transaction, Weaver, WeaverClient, WeaverConfig
from .programs import NodeProgram, ProgramResult, params

__version__ = "1.0.0"

__all__ = [
    "ClusterError",
    "CycleError",
    "GarbageCollectedError",
    "NoSuchEdge",
    "NoSuchVertex",
    "OrderingError",
    "ProgramError",
    "StoreError",
    "TransactionAborted",
    "TransactionError",
    "WeaverError",
    "Gatekeeper",
    "Ordering",
    "RefinableOrdering",
    "TimelineOracle",
    "VectorClock",
    "VectorTimestamp",
    "Transaction",
    "Weaver",
    "WeaverClient",
    "WeaverConfig",
    "NodeProgram",
    "ProgramResult",
    "params",
    "__version__",
]
