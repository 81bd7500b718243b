"""End-to-end consistency verification for chaos runs."""

from .history import (
    CheckerStats,
    CommittedWrite,
    History,
    HistoryChecker,
    ProgramRead,
    ShardApply,
    StreamDigest,
    Violation,
    decided_order,
)
from .online import OnlineChecker

__all__ = [
    "History",
    "HistoryChecker",
    "CommittedWrite",
    "ProgramRead",
    "ShardApply",
    "StreamDigest",
    "Violation",
    "decided_order",
    "OnlineChecker",
    "CheckerStats",
]
