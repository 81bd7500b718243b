"""Vertex placement by stable hash (section 4.6's static baseline).

Weaver's streaming partitioning, which colocates vertices with the
majority of their neighbours [58, 48], is disabled in the paper's
evaluation.  Here placement is a stable hash (``partitioner="hash"``)
or round robin, and locality comes from the live rebalancer instead
(:meth:`repro.db.database.Weaver.rebalance`, ablation A9).
"""

from __future__ import annotations

import hashlib


def _stable_hash(value: str) -> int:
    """A deterministic hash, stable across processes (unlike ``hash``)."""
    return int.from_bytes(
        hashlib.blake2b(value.encode(), digest_size=8).digest(), "big"
    )


class HashPartitioner:
    """Placement by hash: perfectly balanced, locality-blind."""

    def __init__(self, num_partitions: int):
        if num_partitions <= 0:
            raise ValueError("need at least one partition")
        self.num_partitions = num_partitions

    def assign(self, vertex: str) -> int:
        return _stable_hash(vertex) % self.num_partitions
