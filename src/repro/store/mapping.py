"""Vertex-to-shard mapping, stored in the backing store.

The backing store's second job in the paper (section 3.2) is directing
transactions on a vertex to the shard server responsible for it.  The
mapping lives under a reserved key prefix so it shares the store's
transactional guarantees: a transaction that creates a vertex installs
its shard assignment atomically with the vertex itself.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from .kvstore import StoreTransaction, TransactionalStore

_PREFIX = "__shardmap__:"


class ShardMapping:
    """Assigns vertices to shards and remembers the assignments."""

    def __init__(self, store: TransactionalStore, num_shards: int):
        if num_shards <= 0:
            raise ValueError("need at least one shard")
        self._store = store
        self._num_shards = num_shards
        self._next = 0  # round-robin cursor for balanced placement

    @property
    def num_shards(self) -> int:
        return self._num_shards

    @staticmethod
    def _key(vertex: str) -> str:
        return _PREFIX + vertex

    def assign(
        self,
        vertex: str,
        tx: Optional[StoreTransaction] = None,
        shard: Optional[int] = None,
    ) -> int:
        """Pick (or honor) a shard for a new vertex and record it.

        Placement is round-robin by default — balanced load, the property
        the evaluation needs; a caller that places by hash
        (``partitioner="hash"``) or migrates a vertex passes ``shard``.
        """
        if shard is None:
            shard = self._next % self._num_shards
            self._next += 1
        elif not 0 <= shard < self._num_shards:
            raise ValueError(f"shard {shard} out of range")
        if tx is not None:
            tx.put(self._key(vertex), shard)
        else:
            self._store.transact(lambda t: t.put(self._key(vertex), shard))
        return shard

    def lookup(
        self, vertex: str, tx: Optional[StoreTransaction] = None
    ) -> Optional[int]:
        if tx is not None:
            return tx.get(self._key(vertex))
        return self._store.get(self._key(vertex))

    def remove(
        self, vertex: str, tx: Optional[StoreTransaction] = None
    ) -> None:
        if tx is not None:
            tx.delete(self._key(vertex))
        else:
            self._store.transact(lambda t: t.delete(self._key(vertex)))

    def items(self) -> Iterator[Tuple[str, int]]:
        """All live (vertex, shard) assignments."""
        for key in self._store.keys(_PREFIX):
            yield key[len(_PREFIX):], self._store.get(key)

    def load(self) -> Dict[int, int]:
        """Vertices per shard."""
        counts: Dict[int, int] = {i: 0 for i in range(self._num_shards)}
        for _, shard in self.items():
            counts[shard] = counts.get(shard, 0) + 1
        return counts


def placement_from_store(store: TransactionalStore) -> Dict[str, int]:
    """The live vertex-to-shard placement read straight off a store.

    Used by recovering shard workers, which reopen the durable database
    themselves and have no :class:`ShardMapping` (nor its round-robin
    cursor) — they only need to know which vertices are theirs.
    """
    return {
        key[len(_PREFIX):]: store.get(key) for key in store.keys(_PREFIX)
    }
