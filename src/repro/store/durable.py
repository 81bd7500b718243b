"""A durable, larger-than-RAM backing store over SQLite in WAL mode.

This is the reproduction's answer to HyperDex Warp's *durability* half
(section 3.2): the same :class:`~repro.store.kvstore.TransactionalStore`
contract — multi-versioned cells, first-committer-wins OCC, an integer
commit counter — but with the version chains persisted as
``(key, version, value, tombstone)`` rows in a single SQLite database.

Why SQLite/WAL is the right shape here:

* **Write-ahead logging** gives atomic multi-row commits that survive a
  ``kill -9`` of the owning process (``synchronous=NORMAL`` fsyncs the
  WAL at checkpoint boundaries; a torn process leaves a consistent
  database plus a replayable WAL tail).
* **Single-writer / multi-reader** matches the deployment: the client
  process commits, while shard worker processes open their own
  read-only view of the same file to rebuild their partition after a
  crash — no dict snapshot has to be pickled across the fork anymore.
* **The database is the recovery image.**  ``recover_shard`` becomes
  "reopen the file", which is exactly the paper's story of shards
  re-reading their partition out of Warp.

Reads go through an LRU **page cache** of whole per-key version chains
with a configurable byte budget, so the multi-version graph can exceed
RAM: hot chains are served from memory, cold ones are a ``SELECT`` away,
and the cache evicts least-recently-used chains when the budget is hit.

Compaction (``collect_below``) runs the watermark rules in SQL: drop
every record strictly older than the newest record at-or-below the
watermark for its key, then purge lone tombstones with nothing newer.
Open transactions pin their snapshot via the base class's refcounts, so
callers should compact at ``safe_compact_version()``; every garbage-
collection pass does, synchronously.
"""

from __future__ import annotations

import bisect
import pickle
import random
import sqlite3
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..errors import StoreError, TransactionAborted
from .kvstore import META_COMMIT_VERSION, StoreTransaction, TransactionalStore

#: Default page-cache budget: generous for tests, small enough that the
#: paging benchmark can meaningfully oversubscribe it.
DEFAULT_CACHE_BYTES = 8 * 1024 * 1024

#: Fixed per-record overhead charged to the cache on top of the pickled
#: value size (tuple + list-slot + version int, approximately).
_RECORD_OVERHEAD = 64

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    key       TEXT    NOT NULL,
    version   INTEGER NOT NULL,
    value     BLOB,
    tombstone INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (key, version)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS meta (
    name  TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
"""

_COUNTER = "commit_version"


class _Record:
    """One decoded row of a cached version chain."""

    __slots__ = ("version", "exists", "value", "nbytes")

    def __init__(self, version: int, exists: bool, value: Any, nbytes: int):
        self.version = version
        self.exists = exists
        self.value = value
        self.nbytes = nbytes


class DurableStore(TransactionalStore):
    """A SQLite-backed drop-in for :class:`TransactionalStore`.

    ``path`` may be ``":memory:"`` for an ephemeral database (useful in
    tests wanting the durable code paths without touching disk).
    ``cache_bytes`` bounds the page cache; 0 disables caching entirely,
    forcing every read through SQL (the worst-case paging regime).
    """

    def __init__(
        self,
        path: str = ":memory:",
        *,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        read_only: bool = False,
        sleep: Optional[Callable[[float], None]] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(sleep=sleep, rng=rng)
        if cache_bytes < 0:
            raise ValueError("cache_bytes must be >= 0")
        self.path = path
        self.cache_bytes = cache_bytes
        self.read_only = read_only
        self._cache: "OrderedDict[str, List[_Record]]" = OrderedDict()
        self._cache_size = 0
        self._conn = self._open(path, read_only)
        self._commit_version = self._load_counter()

    # -- connection management -----------------------------------------

    @staticmethod
    def _open(path: str, read_only: bool) -> sqlite3.Connection:
        if read_only and path != ":memory:":
            conn = sqlite3.connect(
                f"file:{path}?mode=ro", uri=True, check_same_thread=False
            )
        else:
            conn = sqlite3.connect(
                path, isolation_level=None, check_same_thread=False
            )
        # WAL survives a kill -9 of the writer: the main database plus
        # the log tail replay to the last committed transaction.
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        if not read_only:
            conn.executescript(_SCHEMA)
        return conn

    def _load_counter(self) -> int:
        try:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE name = ?", (_COUNTER,)
            ).fetchone()
        except sqlite3.OperationalError:
            return 0  # read-only open of a not-yet-created database
        return int(row[0]) if row else 0

    def close(self) -> None:
        """Release the SQLite connection (the database stays on disk)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None  # type: ignore[assignment]

    def wal_checkpoint(self) -> None:
        """Copy committed WAL frames into the main database file, so a
        process that opens the file afresh sees every commit.  Passive:
        never waits on readers."""
        self._conn.execute("PRAGMA wal_checkpoint(PASSIVE)")

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- page cache ------------------------------------------------------

    def _chain(self, key: str) -> List[_Record]:
        """The full version chain for ``key``, via the page cache."""
        chain = self._cache.get(key)
        if chain is not None:
            self.stats.page_cache_hits += 1
            self._cache.move_to_end(key)
            return chain
        self.stats.page_cache_misses += 1
        chain = [
            _Record(
                version,
                not tombstone,
                None if tombstone else pickle.loads(blob),
                (len(blob) if blob is not None else 0)
                + len(key)
                + _RECORD_OVERHEAD,
            )
            for version, blob, tombstone in self._conn.execute(
                "SELECT version, value, tombstone FROM records"
                " WHERE key = ? ORDER BY version",
                (key,),
            )
        ]
        self._admit(key, chain)
        return chain

    def _admit(self, key: str, chain: List[_Record]) -> None:
        if self.cache_bytes <= 0:
            return
        self._cache[key] = chain
        self._cache.move_to_end(key)
        self._cache_size += sum(r.nbytes for r in chain)
        while self._cache_size > self.cache_bytes and len(self._cache) > 1:
            evicted_key, evicted = self._cache.popitem(last=False)
            if evicted_key == key:  # never evict the chain being admitted
                self._cache[key] = evicted
                break
            self._cache_size -= sum(r.nbytes for r in evicted)
            self.stats.page_cache_evictions += 1
        self.stats.page_cache_bytes = self._cache_size

    def _cache_append(self, key: str, record: _Record) -> None:
        chain = self._cache.get(key)
        if chain is None:
            return
        chain.append(record)
        self._cache_size += record.nbytes
        self.stats.page_cache_bytes = self._cache_size

    def _cache_drop(self, key: str) -> None:
        chain = self._cache.pop(key, None)
        if chain is not None:
            self._cache_size -= sum(r.nbytes for r in chain)
            self.stats.page_cache_bytes = self._cache_size

    # -- read path -------------------------------------------------------

    def _read_cell(
        self, key: str, snapshot: Optional[int]
    ) -> Tuple[bool, Any, int]:
        chain = self._chain(key)
        if not chain:
            return False, None, 0
        if snapshot is None:
            index = len(chain) - 1
        else:
            versions = [r.version for r in chain]
            index = bisect.bisect_right(versions, snapshot) - 1
            if index < 0:
                return False, None, 0
        record = chain[index]
        return record.exists, record.value, record.version

    def _latest_version(self, key: str) -> int:
        """Newest version of ``key`` without disturbing the page cache.

        OCC validation only needs the head version; loading whole cold
        chains for it would thrash the cache under memory pressure.
        """
        chain = self._cache.get(key)
        if chain is not None:
            return chain[-1].version if chain else 0
        row = self._conn.execute(
            "SELECT MAX(version) FROM records WHERE key = ?", (key,)
        ).fetchone()
        return int(row[0]) if row and row[0] is not None else 0

    def keys(self, prefix: str = "") -> Iterator[str]:
        # Materialized: the caller may write while it iterates.
        rows = self._conn.execute(
            "SELECT r.key FROM records r JOIN ("
            "  SELECT key, MAX(version) AS head FROM records GROUP BY key"
            ") h ON r.key = h.key AND r.version = h.head"
            " WHERE r.tombstone = 0 ORDER BY r.key"
        ).fetchall()
        for (key,) in rows:
            if prefix and not key.startswith(prefix):
                continue
            yield key

    def begin(self) -> StoreTransaction:
        # Kept in this class body: bench_e2e/tracing.py wraps
        # ``DurableStore.begin`` by name.
        return super().begin()

    # -- commit path -----------------------------------------------------

    def _commit(
        self,
        snapshot: int,
        reads: Dict[str, int],
        writes: Dict[str, Any],
        deletes: Set[str],
    ) -> int:
        if self.read_only:
            raise StoreError("store opened read-only")
        # BEGIN IMMEDIATE takes the database write lock up front, so
        # validation and application are one atomic unit even with
        # other processes holding connections to the same file.
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            for key, seen_version in reads.items():
                if self._latest_version(key) != seen_version:
                    self.aborts += 1
                    raise TransactionAborted(f"read conflict on {key!r}")
            for key in set(writes) | deletes:
                if self._latest_version(key) > snapshot:
                    self.aborts += 1
                    raise TransactionAborted(f"write conflict on {key!r}")
            version = self._commit_version + 1
            rows = []
            records: List[Tuple[str, _Record]] = []
            for key, value in writes.items():
                blob = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
                rows.append((key, version, blob, 0))
                records.append(
                    (
                        key,
                        _Record(
                            version,
                            True,
                            value,
                            len(blob) + len(key) + _RECORD_OVERHEAD,
                        ),
                    )
                )
            for key in deletes:
                rows.append((key, version, None, 1))
                records.append(
                    (
                        key,
                        _Record(
                            version, False, None,
                            len(key) + _RECORD_OVERHEAD,
                        ),
                    )
                )
            self._conn.executemany(
                "INSERT INTO records (key, version, value, tombstone)"
                " VALUES (?, ?, ?, ?)",
                rows,
            )
            self._conn.execute(
                "INSERT INTO meta (name, value) VALUES (?, ?)"
                " ON CONFLICT(name) DO UPDATE SET value = excluded.value",
                (_COUNTER, version),
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._commit_version = version
        for key, record in records:
            self._cache_append(key, record)
        self.commits += 1
        return version

    # -- durability / recovery -------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        state: Dict[str, Any] = {
            META_COMMIT_VERSION: self._commit_version
        }
        for key in self.keys():
            exists, value, _ = self._read_cell(key, None)
            if exists:
                state[key] = value
        return state

    def restore(self, state: Dict[str, Any]) -> None:
        head = self._conn.execute(
            "SELECT COUNT(*) FROM records"
        ).fetchone()[0]
        if head:
            raise StoreError("restore requires an empty store")
        state = dict(state)
        resumed = state.pop(META_COMMIT_VERSION, self._commit_version)
        self._commit_version = max(self._commit_version, int(resumed))
        version = self._commit_version + 1
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._conn.executemany(
                "INSERT INTO records (key, version, value, tombstone)"
                " VALUES (?, ?, ?, 0)",
                [
                    (
                        key,
                        version,
                        pickle.dumps(v, pickle.HIGHEST_PROTOCOL),
                    )
                    for key, v in state.items()
                ],
            )
            self._conn.execute(
                "INSERT INTO meta (name, value) VALUES (?, ?)"
                " ON CONFLICT(name) DO UPDATE SET value = excluded.value",
                (_COUNTER, version),
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._commit_version = version

    def collect_below(self, version: int) -> int:
        """Watermark compaction, in SQL.

        Two passes: (1) drop records strictly older than the newest
        record at-or-below the watermark for their key — any read at a
        snapshot >= watermark is answered by that newest record or
        something younger, so nothing visible is lost; (2) purge lone
        tombstones at-or-below the watermark with nothing newer — the
        key reads as "missing" either way.
        """
        if self.read_only:
            raise StoreError("store opened read-only")
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            superseded = self._conn.execute(
                "DELETE FROM records WHERE version < ("
                "  SELECT MAX(r2.version) FROM records r2"
                "  WHERE r2.key = records.key AND r2.version <= ?"
                ")",
                (version,),
            ).rowcount
            tombstones = self._conn.execute(
                "DELETE FROM records WHERE tombstone = 1"
                " AND version <= ?"
                " AND NOT EXISTS ("
                "  SELECT 1 FROM records r2"
                "  WHERE r2.key = records.key"
                "  AND r2.version > records.version"
                ")",
                (version,),
            ).rowcount
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        # Trim cached chains in tandem so the cache stays coherent
        # (and sheds the same bytes the database just reclaimed).
        for key in list(self._cache):
            chain = self._cache[key]
            versions = [r.version for r in chain]
            keep_from = bisect.bisect_right(versions, version) - 1
            if keep_from > 0:
                freed = sum(r.nbytes for r in chain[:keep_from])
                del chain[:keep_from]
                self._cache_size -= freed
            if (
                len(chain) == 1
                and not chain[0].exists
                and chain[0].version <= version
            ):
                self._cache_drop(key)
            elif not chain:
                self._cache_drop(key)
        self.stats.page_cache_bytes = self._cache_size
        self.stats.compactions += 1
        self.stats.records_collected += superseded + tombstones
        self.stats.tombstones_purged += tombstones
        return superseded + tombstones
