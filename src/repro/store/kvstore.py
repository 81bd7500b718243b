"""A transactional, multi-versioned key-value store.

This is the reproduction's stand-in for HyperDex Warp (section 3.2): the
durable system of record for the graph, providing atomic multi-key
transactions with optimistic concurrency control.  Weaver relies on it
for exactly two contracts, both provided here:

* a transaction commits only if none of the data it read was modified by
  a concurrently-committed transaction (abort-on-conflict, the "acyclic
  transactions" guarantee the gatekeepers lean on in section 4.2), and
* committed state survives shard failures (modelled by
  :meth:`TransactionalStore.snapshot` / :meth:`restore`).

The store is strictly a substrate: it orders commits with its own integer
commit counter and knows nothing about vector timestamps.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterator, Optional, Set, Tuple

from ..errors import StoreError, TransactionAborted, TransactionError
from .versioned import VersionedCell

#: Reserved snapshot key carrying the commit counter.  Snapshots must
#: round-trip the counter: a recovered store that restarts its counter
#: near 1 reuses pre-crash commit versions, which corrupts everything
#: keyed on them (the checkers' order-keyed digest joins included).
META_COMMIT_VERSION = "__meta__:commit_version"

#: Base delay for the first ``transact`` retry backoff, in seconds.
DEFAULT_BACKOFF_BASE = 1e-4
#: Backoff ceiling, so a long retry chain stays bounded.
DEFAULT_BACKOFF_CAP = 0.05


class StoreStats:
    """Counters of the backing store, exported under ``store.*``.

    One class serves every backend: the in-memory store leaves the
    page-cache fields at zero, so the metric-name surface is identical
    no matter which backend a deployment selects.
    """

    def __init__(self) -> None:
        self.commits = 0
        self.aborts = 0
        #: ``transact`` attempts beyond each call's first try.
        self.retries = 0
        #: ``collect_below`` invocations and what they reclaimed.
        self.compactions = 0
        self.records_collected = 0
        #: Cells whose only surviving record was a lone tombstone.
        self.tombstones_purged = 0
        #: Durable-backend page cache (zero on the in-memory backend).
        self.page_cache_hits = 0
        self.page_cache_misses = 0
        self.page_cache_evictions = 0
        self.page_cache_bytes = 0


class StoreTransaction:
    """One optimistic transaction against a :class:`TransactionalStore`.

    Reads are served from the snapshot taken at ``begin`` and recorded in
    a read set; writes are buffered locally and become visible only at
    commit.  Validation (first-committer-wins) checks that every key read
    or written is unchanged since the snapshot.
    """

    def __init__(self, store: "TransactionalStore", snapshot: int):
        self._store = store
        self._snapshot = snapshot
        self._reads: Dict[str, int] = {}
        self._writes: Dict[str, Any] = {}
        self._deletes: Set[str] = set()
        self._done = False

    @property
    def snapshot(self) -> int:
        return self._snapshot

    @property
    def read_set(self) -> Set[str]:
        return set(self._reads)

    @property
    def write_set(self) -> Set[str]:
        return set(self._writes) | self._deletes

    @property
    def is_open(self) -> bool:
        """True until the transaction commits or aborts.

        A commit that raises :class:`TransactionAborted` still closes the
        transaction, so cleanup paths must check this before calling
        :meth:`abort` (which raises on a closed transaction).
        """
        return not self._done

    def _check_open(self) -> None:
        if self._done:
            raise TransactionError("transaction already committed/aborted")

    def get(self, key: str, default: Any = None) -> Any:
        """Read ``key`` at the transaction snapshot (own writes win)."""
        self._check_open()
        if key in self._deletes:
            return default
        if key in self._writes:
            return self._writes[key]
        exists, value, version = self._store._read_cell(key, self._snapshot)
        self._reads[key] = version
        return value if exists else default

    def exists(self, key: str) -> bool:
        self._check_open()
        if key in self._deletes:
            return False
        if key in self._writes:
            return True
        exists, _, version = self._store._read_cell(key, self._snapshot)
        self._reads[key] = version
        return exists

    def put(self, key: str, value: Any) -> None:
        self._check_open()
        self._deletes.discard(key)
        self._writes[key] = value

    def delete(self, key: str) -> None:
        self._check_open()
        self._writes.pop(key, None)
        self._deletes.add(key)

    def commit(self) -> int:
        """Validate and apply; returns the commit version.

        Raises :class:`TransactionAborted` when any key in the read or
        write set changed after the snapshot (a concurrent committer won).
        """
        self._check_open()
        self._done = True
        self._store._release_snapshot(self._snapshot)
        return self._store._commit(
            self._snapshot, self._reads, self._writes, self._deletes
        )

    def abort(self) -> None:
        self._check_open()
        self._done = True
        self._store._release_snapshot(self._snapshot)


class TransactionalStore:
    """The shared, durable key-value store."""

    def __init__(
        self,
        *,
        sleep: Optional[Callable[[float], None]] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._cells: Dict[str, VersionedCell] = {}
        #: Keys whose cell compaction may shrink: written over, or
        #: deleted.  A cell holding one live record has nothing to give.
        self._collectable: Set[str] = set()
        self._commit_version = 0
        self.stats = StoreStats()
        #: snapshot version -> number of open transactions pinned to it;
        #: compaction must not pass the oldest pinned snapshot.
        self._open_snapshots: Dict[int, int] = {}
        self._sleep: Callable[[float], None] = sleep or (lambda _s: None)
        self._rng: random.Random = rng or random.Random(0)

    # ``commits``/``aborts`` pre-date StoreStats; keep them as aliases so
    # existing callers (and subclasses doing ``self.aborts += 1``) work.
    @property
    def commits(self) -> int:
        return self.stats.commits

    @commits.setter
    def commits(self, value: int) -> None:
        self.stats.commits = value

    @property
    def aborts(self) -> int:
        return self.stats.aborts

    @aborts.setter
    def aborts(self, value: int) -> None:
        self.stats.aborts = value

    @property
    def version(self) -> int:
        """The newest committed version."""
        return self._commit_version

    # -- transactional interface -------------------------------------

    def begin(self) -> StoreTransaction:
        snapshot = self._commit_version
        self._open_snapshots[snapshot] = (
            self._open_snapshots.get(snapshot, 0) + 1
        )
        return StoreTransaction(self, snapshot)

    def _release_snapshot(self, snapshot: int) -> None:
        count = self._open_snapshots.get(snapshot, 0)
        if count <= 1:
            self._open_snapshots.pop(snapshot, None)
        else:
            self._open_snapshots[snapshot] = count - 1

    def safe_compact_version(self) -> int:
        """Highest version compaction may use without hurting open readers.

        Open transactions read at their pinned snapshot; compacting past
        the oldest pinned snapshot could drop the record answering one of
        their reads.  With no open transactions the whole history up to
        the current commit version is fair game.
        """
        if self._open_snapshots:
            return min(self._open_snapshots)
        return self._commit_version

    def transact(
        self,
        fn,
        retries: int = 10,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
    ):
        """Run ``fn(tx)`` with automatic retry on conflict.

        ``fn`` receives a fresh :class:`StoreTransaction`; its return value
        is returned after a successful commit.  Conflicting attempts back
        off with full jitter (uniform in [0, min(cap, base * 2**n)]) so
        colliding writers decorrelate instead of re-colliding in lockstep.
        Any exception — not just :class:`TransactionAborted` — aborts the
        open transaction before propagating.
        """
        last_error: Optional[TransactionAborted] = None
        for attempt in range(retries):
            if attempt:
                self.stats.retries += 1
                ceiling = min(backoff_cap, backoff_base * (2 ** (attempt - 1)))
                self._sleep(self._rng.random() * ceiling)
            tx = self.begin()
            try:
                result = fn(tx)
                tx.commit()
                return result
            except TransactionAborted as exc:
                last_error = exc
            finally:
                if tx.is_open:
                    tx.abort()
        raise last_error if last_error else StoreError("transact failed")

    # -- non-transactional conveniences --------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        exists, value, _ = self._read_cell(key, None)
        return value if exists else default

    def exists(self, key: str) -> bool:
        exists, _, _ = self._read_cell(key, None)
        return exists

    def keys(self, prefix: str = "") -> Iterator[str]:
        """Currently-live keys, optionally filtered by prefix."""
        for key, cell in self._cells.items():
            if prefix and not key.startswith(prefix):
                continue
            exists, _, _ = cell.read(None)
            if exists:
                yield key

    def read_at(self, key: str, version: int) -> Tuple[bool, Any]:
        """Historical read at a specific commit version."""
        exists, value, _ = self._read_cell(key, version)
        return exists, value

    # -- internals -------------------------------------------------------

    def _read_cell(
        self, key: str, snapshot: Optional[int]
    ) -> Tuple[bool, Any, int]:
        cell = self._cells.get(key)
        if cell is None:
            return False, None, 0
        return cell.read(snapshot)

    def _commit(
        self,
        snapshot: int,
        reads: Dict[str, int],
        writes: Dict[str, Any],
        deletes: Set[str],
    ) -> int:
        # First-committer-wins validation: every key read must still be at
        # the version we read, and every key written must not have moved
        # past our snapshot (write-write conflicts abort too).
        for key, seen_version in reads.items():
            cell = self._cells.get(key)
            current = cell.latest_version if cell is not None else 0
            if current != seen_version:
                self.aborts += 1
                raise TransactionAborted(f"read conflict on {key!r}")
        for key in set(writes) | deletes:
            cell = self._cells.get(key)
            if cell is not None and cell.latest_version > snapshot:
                self.aborts += 1
                raise TransactionAborted(f"write conflict on {key!r}")
        self._commit_version += 1
        version = self._commit_version
        for key, value in writes.items():
            cell = self._cells.setdefault(key, VersionedCell())
            cell.write(version, value)
            if len(cell) > 1:
                self._collectable.add(key)
        for key in deletes:
            self._cells.setdefault(key, VersionedCell()).delete(version)
            self._collectable.add(key)
        self.commits += 1
        return version

    # -- durability / recovery -------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Materialize the latest committed state (for recovery tests).

        The commit counter rides along under :data:`META_COMMIT_VERSION`:
        a restore that restarted the counter near 1 would reuse pre-crash
        commit versions, corrupting everything keyed on them (the
        checkers' order-keyed digest joins included).
        """
        state: Dict[str, Any] = {META_COMMIT_VERSION: self._commit_version}
        for key, cell in self._cells.items():
            exists, value, _ = cell.read(None)
            if exists:
                state[key] = value
        return state

    def restore(self, state: Dict[str, Any]) -> None:
        """Load a snapshot into an empty store."""
        if self._cells:
            raise StoreError("restore requires an empty store")
        state = dict(state)
        resumed = state.pop(META_COMMIT_VERSION, self._commit_version)
        self._commit_version = max(self._commit_version, int(resumed))
        self._commit_version += 1
        for key, value in state.items():
            self._cells.setdefault(key, VersionedCell()).write(
                self._commit_version, value
            )

    def collect_below(self, version: int) -> int:
        """Garbage-collect versions superseded before ``version``.

        Cells left empty — their only surviving record was a tombstone at
        or below the watermark — are dropped from the key map entirely,
        so create/delete churn no longer grows memory without bound.
        """
        dropped = 0
        for key in list(self._collectable):
            cell = self._cells[key]
            reclaimed = cell.collect_below(version)
            dropped += reclaimed
            if len(cell) == 0:
                del self._cells[key]
                if reclaimed:
                    self.stats.tombstones_purged += 1
            if len(cell) == 0 or (len(cell) == 1 and cell.read(None)[0]):
                self._collectable.discard(key)
        self.stats.compactions += 1
        self.stats.records_collected += dropped
        return dropped
