"""A distributed, replicated backing store (the shape of HyperDex Warp).

The single-object :class:`~repro.store.kvstore.TransactionalStore`
provides the *contract* Weaver needs; this module provides the
*deployment shape* the paper's backing store actually has: keys are
partitioned across **store nodes** by consistent hashing, every key is
replicated on ``replication`` consecutive nodes, and multi-key commits
run a Warp-style **linear transaction** — validation and application
flow through the involved key-owners in one canonical order (which is
what makes conflicting transactions serialize without a global lock),
with the message count recorded per commit.

The class subclasses :class:`TransactionalStore` and supplies only where
a key's cell lives (``_cell`` routes to the first live replica,
``_install`` writes every live replica, ``keys``, ``collect_below``);
validation, the commit counter, ``snapshot`` and ``restore`` are the
base class's, and ``_commit`` adds only the chain accounting.  So
everything built on the store — gatekeepers, shard recovery, demand
paging — works unchanged on top of it, including after a store-node
failure (any single node can be lost without losing committed data when
``replication`` >= 2).
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set

from ..errors import StoreError
from .kvstore import TransactionalStore
from .versioned import VersionedCell


def _stable_hash(key: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(key.encode(), digest_size=8).digest(), "big"
    )


class StoreNode:
    """One storage server: a slice of the key space (plus replicas)."""

    def __init__(self, index: int):
        self.index = index
        self.cells: Dict[str, VersionedCell] = {}
        self.alive = True
        self.reads = 0
        self.writes = 0

    @property
    def name(self) -> str:
        return f"store{self.index}"


class DistributedStore(TransactionalStore):
    """A partitioned, replicated drop-in for :class:`TransactionalStore`."""

    def __init__(
        self,
        num_nodes: int = 4,
        replication: int = 2,
        *,
        sleep: Optional[Callable[[float], None]] = None,
        rng: Optional[random.Random] = None,
    ):
        if num_nodes < 1:
            raise ValueError("need at least one store node")
        if not 1 <= replication <= num_nodes:
            raise ValueError("replication must be in [1, num_nodes]")
        super().__init__(sleep=sleep, rng=rng)
        # The base class's _cells dict goes unused; routing replaces it.
        self.nodes = [StoreNode(i) for i in range(num_nodes)]
        self.replication = replication
        self.chain_messages = 0
        self.commit_chains: List[int] = []

    # -- placement ---------------------------------------------------

    def replicas_of(self, key: str) -> List[StoreNode]:
        """The ``replication`` consecutive nodes owning ``key``."""
        first = _stable_hash(key) % len(self.nodes)
        return [
            self.nodes[(first + i) % len(self.nodes)]
            for i in range(self.replication)
        ]

    def _live_replicas(self, key: str) -> List[StoreNode]:
        return [node for node in self.replicas_of(key) if node.alive]

    # -- where a key's cell lives ------------------------------------------

    def _cell(self, key: str) -> Optional[VersionedCell]:
        live = self._live_replicas(key)
        if not live:
            raise StoreError(
                f"all replicas of {key!r} are down "
                f"(replication={self.replication})"
            )
        live[0].reads += 1
        return live[0].cells.get(key)

    def _install(
        self, version: int, writes: Dict[str, Any], deletes: Iterable[str]
    ) -> None:
        for key, value in writes.items():
            for node in self._live_replicas(key):
                node.writes += 1
                node.cells.setdefault(key, VersionedCell()).write(
                    version, value
                )
        for key in deletes:
            for node in self._live_replicas(key):
                node.writes += 1
                node.cells.setdefault(key, VersionedCell()).delete(version)

    def _commit(
        self,
        snapshot: int,
        reads: Dict[str, int],
        writes: Dict[str, Any],
        deletes: Set[str],
    ) -> int:
        """A Warp-style linear transaction.

        The involved key-owners form a chain in canonical (index) order;
        validation walks forward through the chain, application walks
        back.  Two conflicting transactions meet at their first shared
        owner, where first-committer-wins applies — the base class's
        rules, with the chain's messages accounted here.
        """
        version = super()._commit(snapshot, reads, writes, deletes)
        chain = {
            node.index
            for key in set(reads) | set(writes) | deletes
            for node in self._live_replicas(key)
        }
        self.chain_messages += 2 * len(chain)
        self.commit_chains.append(len(chain))
        return version

    def _all_keys(self) -> Set[str]:
        keys: Set[str] = set()
        for node in self.nodes:
            if node.alive:
                keys.update(node.cells)
        return keys

    def keys(self, prefix: str = "") -> Iterator[str]:
        for key in sorted(self._all_keys()):
            if key.startswith(prefix) and self._read_cell(key, None)[0]:
                yield key

    def collect_below(self, version: int) -> int:
        """Compact every live replica; a key's records count once, not
        once per replica."""
        reclaimed = purged = 0
        for key in self._all_keys():
            freed, emptied = 0, True
            for node in self._live_replicas(key):
                cell = node.cells.get(key)
                if cell is None:
                    continue
                freed = max(freed, cell.collect_below(version))
                if cell:
                    emptied = False
                else:
                    del node.cells[key]
            reclaimed += freed
            purged += bool(freed and emptied)
        return self._compacted(reclaimed, purged)

    # -- failure handling -------------------------------------------------

    def fail_node(self, index: int) -> None:
        """Crash one store node; keys remain served by their replicas."""
        if not 0 <= index < len(self.nodes):
            raise StoreError(f"no store node {index}")
        live = sum(1 for node in self.nodes if node.alive)
        if live <= 1:
            raise StoreError("cannot fail the last store node")
        self.nodes[index].alive = False

    def recover_node(self, index: int) -> int:
        """Bring a node back, re-replicating the keys it should own.

        Returns the number of keys copied back onto it.
        """
        node = self.nodes[index]
        node.alive = True
        node.cells.clear()
        copied = 0
        for key in self._all_keys():
            owners = self.replicas_of(key)
            if node not in owners:
                continue
            source = next(
                (n for n in owners if n.alive and n is not node and
                 key in n.cells),
                None,
            )
            if source is None:
                continue
            fresh = VersionedCell()
            for version, exists, value in source.cells[key].history():
                if exists:
                    fresh.write(version, value)
                else:
                    fresh.delete(version)
            node.cells[key] = fresh
            copied += 1
        return copied

    @property
    def mean_chain_length(self) -> float:
        if not self.commit_chains:
            return 0.0
        return sum(self.commit_chains) / len(self.commit_chains)
