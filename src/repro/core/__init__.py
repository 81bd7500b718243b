"""Refinable timestamps: the paper's core contribution.

Exports the vector-clock layer (proactive ordering), the timeline oracle
(reactive ordering), the combined façade, and the gatekeeper server.
"""

from .vclock import Ordering, VectorClock, VectorTimestamp
from .oracle import (
    EventDependencyGraph,
    OracleStats,
    ReplicatedOracle,
    TimelineOracle,
)
from .ordering import (
    OrderingStats,
    RefinableOrdering,
    make_oracle,
)
from .gatekeeper import Gatekeeper, GatekeeperStats

__all__ = [
    "Ordering",
    "VectorClock",
    "VectorTimestamp",
    "EventDependencyGraph",
    "OracleStats",
    "ReplicatedOracle",
    "TimelineOracle",
    "OrderingStats",
    "RefinableOrdering",
    "make_oracle",
    "Gatekeeper",
    "GatekeeperStats",
]
