"""Refinable timestamps: the paper's core contribution.

Exports the vector-clock layer (proactive ordering), the timeline oracle
(reactive ordering), the combined façade, and the gatekeeper server.
"""

from .vclock import Ordering, VectorClock, VectorTimestamp
from .oracle import (
    EventDependencyGraph,
    OracleStats,
    TimelineOracle,
)
from .ordering import (
    OrderingStats,
    RefinableOrdering,
)
from .gatekeeper import Gatekeeper, GatekeeperStats

__all__ = [
    "Ordering",
    "VectorClock",
    "VectorTimestamp",
    "EventDependencyGraph",
    "OracleStats",
    "TimelineOracle",
    "OrderingStats",
    "RefinableOrdering",
    "Gatekeeper",
    "GatekeeperStats",
]
