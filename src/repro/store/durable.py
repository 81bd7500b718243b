"""A durable, larger-than-RAM backing store over SQLite in WAL mode.

This is the reproduction's answer to HyperDex Warp's *durability* half
(section 3.2): :class:`~repro.store.kvstore.TransactionalStore`'s one
commit body, ``snapshot`` and ``restore``, with the version chains
persisted as ``(key, version, value, tombstone)`` rows in a single
SQLite database.  A commit is one SQL transaction, write lock first,
around validation and application.  A value is stored as one
:mod:`repro.cluster.wire` payload, the codec the transport speaks: no
code runs on reopen, and a row that does not decode (garbage, or written
under another ``WIRE_VERSION``; there is no migration) raises
:class:`~repro.errors.StoreError` naming its key and version on first
read.

Why SQLite/WAL is the right shape here:

* **Write-ahead logging** gives atomic multi-row commits that survive a
  ``kill -9`` of the owning process (``synchronous=NORMAL`` fsyncs the
  WAL at checkpoint boundaries; a torn process leaves a consistent
  database plus a replayable WAL tail).
* **Single-writer / multi-reader** matches the deployment: the client
  process commits, while shard worker processes open their own
  read-only view of the same file to rebuild their partition after a
  crash — no dict snapshot has to cross the fork.
* **The database is the recovery image.**  ``recover_shard`` becomes
  "reopen the file", which is exactly the paper's story of shards
  re-reading their partition out of Warp.

Reads go through an LRU **page cache** of whole per-key
:class:`~repro.store.versioned.VersionedCell`s with a configurable byte
budget, so the multi-version graph can exceed RAM: hot chains are served
from memory, cold ones are a ``SELECT`` away, and the cache evicts
least-recently-used cells when the budget is hit.  A cached cell learns
a commit's records only after its ``COMMIT``, and OCC validation reads
``MAX(version)`` without filling the cache.

Compaction (``collect_below``) runs the watermark rules in SQL: drop
every record strictly older than the newest record at-or-below the
watermark for its key, then purge lone tombstones with nothing newer.
Open transactions pin their snapshot via the base class's refcounts, so
callers should compact at ``safe_compact_version()``; every garbage-
collection pass does, synchronously.
"""

from __future__ import annotations

import random
import sqlite3
from collections import OrderedDict
from contextlib import contextmanager
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple,
)

from ..errors import StoreError
from .kvstore import StoreTransaction, TransactionalStore
from .versioned import VersionedCell

#: Default page-cache budget: generous for tests, small enough that the
#: paging benchmark can meaningfully oversubscribe it.
DEFAULT_CACHE_BYTES = 8 * 1024 * 1024

#: Fixed per-record overhead charged to the cache on top of the encoded
#: value size (list slots + version int, approximately).
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


def _record_bytes(key: str, blob: Optional[bytes]) -> int:
    """What one record costs the page cache."""
    return len(key) + _RECORD_OVERHEAD + (len(blob) if blob else 0)


def _damaged(path: str, exc: sqlite3.DatabaseError) -> StoreError:
    """A file that is not a whole SQLite database — truncated, or never
    one — fails its open by path; there is no repair."""
    return StoreError(f"store {path!r} cannot be opened: {exc}")


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
        # Imported here: repro.cluster imports repro.store when it loads.
        from ..cluster import wire

        self._wire = wire
        self._cache: "OrderedDict[str, VersionedCell]" = OrderedDict()
        #: What each cached cell is charged; sums to ``_cache_size``.
        self._cell_bytes: Dict[str, int] = {}
        self._cache_size = 0
        #: (key, version, value, blob) of the commit in flight, blob None
        #: for a tombstone: cached cells learn them after ``COMMIT``.
        self._pending: List[Tuple[str, int, Any, Optional[bytes]]] = []
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
        try:
            # WAL survives a kill -9 of the writer: the main database
            # plus the log tail replay to the last committed transaction.
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            if not read_only:
                conn.executescript(_SCHEMA)
        except sqlite3.DatabaseError as exc:
            conn.close()
            raise _damaged(path, exc) from exc
        return conn

    def _load_counter(self) -> int:
        try:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE name = ?", (_COUNTER,)
            ).fetchone()
        except sqlite3.OperationalError:
            return 0  # read-only open of a not-yet-created database
        except sqlite3.DatabaseError as exc:
            self.close()
            raise _damaged(self.path, exc) from exc
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

    def _cell(self, key: str) -> VersionedCell:
        """``key``'s whole version chain, via the page cache."""
        cell = self._cache.get(key)
        if cell is not None:
            self.stats.page_cache_hits += 1
            self._cache.move_to_end(key)
            return cell
        self.stats.page_cache_misses += 1
        cell = VersionedCell()
        nbytes = 0
        for version, blob, tombstone in self._conn.execute(
            "SELECT version, value, tombstone FROM records"
            " WHERE key = ? ORDER BY version",
            (key,),
        ):
            if tombstone:
                cell.delete(version)
            else:
                cell.write(version, self._decode(key, version, blob))
            nbytes += _record_bytes(key, blob)
        if self.cache_bytes > 0:
            self._admit(key, cell, nbytes)
        return cell

    def _admit(self, key: str, cell: VersionedCell, nbytes: int) -> None:
        self._cache[key] = cell
        self._cell_bytes[key] = nbytes
        self._cache_size += nbytes
        while self._cache_size > self.cache_bytes and len(self._cache) > 1:
            evicted, _ = self._cache.popitem(last=False)
            self._cache_size -= self._cell_bytes.pop(evicted)
            self.stats.page_cache_evictions += 1
        self.stats.page_cache_bytes = self._cache_size

    def _charge(self, key: str, nbytes: int) -> None:
        self._cell_bytes[key] += nbytes
        self._cache_size += nbytes
        self.stats.page_cache_bytes = self._cache_size

    def _decode(self, key: str, version: int, blob: bytes) -> Any:
        try:
            return self._wire.decode(blob)
        except self._wire.WireError as exc:
            raise StoreError(
                f"record {key!r}@{version} does not decode: {exc}"
            ) from exc

    def _encode(self, key: str, value: Any) -> bytes:
        try:
            return self._wire.encode(value)
        except self._wire.WireError as exc:
            raise StoreError(
                f"value of {key!r} cannot be stored: {exc}"
            ) from exc

    # -- read path -------------------------------------------------------

    def _latest_version(self, key: str) -> int:
        """Newest version of ``key`` without disturbing the page cache.

        OCC validation only needs the head version; loading whole cold
        chains for it would thrash the cache under memory pressure.
        """
        cell = self._cache.get(key)
        if cell is not None:
            return cell.latest_version
        (head,) = self._conn.execute(
            "SELECT MAX(version) FROM records WHERE key = ?", (key,)
        ).fetchone()
        return head or 0

    def keys(self, prefix: str = "") -> Iterator[str]:
        # Materialized: the caller may write while it iterates.
        rows = self._conn.execute(
            "SELECT r.key FROM records r JOIN ("
            "  SELECT key, MAX(version) AS head FROM records GROUP BY key"
            ") h ON r.key = h.key AND r.version = h.head"
            " WHERE r.tombstone = 0 ORDER BY r.key"
        ).fetchall()
        for (key,) in rows:
            if key.startswith(prefix):
                yield key

    def begin(self) -> StoreTransaction:
        # Kept in this class body: bench_e2e/tracing.py wraps
        # ``DurableStore.begin`` by name.
        return super().begin()

    # -- commit path -----------------------------------------------------

    @contextmanager
    def _writing(self) -> Iterator[None]:
        """One SQL transaction that takes the database write lock up
        front, so validation and application are one atomic unit even
        with other processes holding connections to the same file;
        cached cells learn the new records after ``COMMIT``."""
        if self.read_only:
            raise StoreError("store opened read-only")
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        finally:
            pending, self._pending = self._pending, []
        for key, version, value, blob in pending:
            cell = self._cache.get(key)
            if cell is None:
                continue
            if blob is None:
                cell.delete(version)
            else:
                cell.write(version, value)
            self._charge(key, _record_bytes(key, blob))

    def _install(
        self, version: int, writes: Dict[str, Any], deletes: Iterable[str]
    ) -> None:
        pending = [
            (key, version, value, self._encode(key, value))
            for key, value in writes.items()
        ]
        pending += [(key, version, None, None) for key in deletes]
        self._conn.executemany(
            "INSERT INTO records (key, version, value, tombstone)"
            " VALUES (?, ?, ?, ?)",
            [(key, v, blob, blob is None) for key, v, _, blob in pending],
        )
        self._conn.execute(
            "INSERT INTO meta (name, value) VALUES (?, ?)"
            " ON CONFLICT(name) DO UPDATE SET value = excluded.value",
            (_COUNTER, version),
        )
        self._pending = pending

    def collect_below(self, version: int) -> int:
        """Watermark compaction, in SQL.

        Two passes: (1) drop records strictly older than the newest
        record at-or-below the watermark for their key — any read at a
        snapshot >= watermark is answered by that newest record or
        something younger, so nothing visible is lost; (2) purge lone
        tombstones at-or-below the watermark with nothing newer — the
        key reads as "missing" either way.  Cached cells apply the same
        rules (:meth:`VersionedCell.collect_below`) and shed their bytes
        in proportion.
        """
        with self._writing():
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
        for key, cell in list(self._cache.items()):
            held = len(cell)
            if not cell.collect_below(version):
                continue
            if cell:
                charged = self._cell_bytes[key]
                self._charge(key, charged * len(cell) // held - charged)
            else:
                del self._cache[key]
                self._cache_size -= self._cell_bytes.pop(key)
        self.stats.page_cache_bytes = self._cache_size
        return self._compacted(superseded + tombstones, tombstones)
