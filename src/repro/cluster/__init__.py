"""Cluster runtime: shard servers, messages, and the cluster manager."""

from .messages import (
    AnnounceMessage,
    Heartbeat,
    QueuedTransaction,
)
from .shard import ShardServer, ShardStats
from .manager import ClusterManager

__all__ = [
    "AnnounceMessage",
    "Heartbeat",
    "QueuedTransaction",
    "ShardServer",
    "ShardStats",
    "ClusterManager",
]
