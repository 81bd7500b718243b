"""Cluster runtime: shard servers, messages, and the cluster manager."""

from .messages import (
    AnnounceMessage,
    Heartbeat,
    QueuedTransaction,
)
from .shard import ShardServer, ShardStats
from .manager import ClusterManager
from .replica import ReadReplica

__all__ = [
    "AnnounceMessage",
    "Heartbeat",
    "QueuedTransaction",
    "ShardServer",
    "ShardStats",
    "ClusterManager",
    "ReadReplica",
]
