"""Paging benchmark: the durable store under memory pressure.

Measures transactional write and read throughput of the backing store
in three regimes with identical workloads:

* ``memory`` — the in-memory :class:`TransactionalStore` (the upper
  bound: no serialization, no I/O);
* ``sqlite @ 1x`` — the durable store with a page-cache budget that
  holds the whole live set (durability cost, no paging);
* ``sqlite @ 4x`` — the live set is four times the cache budget, so
  reads continuously page chains in and out of SQL (the
  larger-than-RAM regime the backend exists for).

Counts ride along with the clocks: page-cache hits/misses/evictions
prove each regime actually exercised the path its label claims.

The 4x regime's figure is its absolute read rate, as median and
quartiles over :data:`REPEATS_AT_4X` fresh stores: a ratio to the
in-memory rate would move with a denominator that swings twofold run to
run.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import tempfile
import time
from typing import Any, Dict, List

from ..store.durable import DurableStore
from ..store.kvstore import TransactionalStore

REPEATS_AT_4X = 5


def _run_workload(
    store, keys: List[str], value_bytes: int, writes: int, reads: int,
    seed: int,
) -> Dict[str, float]:
    rng = random.Random(seed)
    payload = "x" * value_bytes

    started = time.perf_counter()
    for key in keys:
        store.transact(lambda t, key=key: t.put(key, payload))
    for i in range(writes):
        key = keys[rng.randrange(len(keys))]
        store.transact(lambda t, key=key, i=i: t.put(key, f"{payload}{i}"))
    write_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(reads):
        store.get(keys[rng.randrange(len(keys))])
    read_seconds = time.perf_counter() - started

    # Compact mid-life, like the deployments' GC tick does, so the
    # measured regime includes watermark compaction work.
    store.collect_below(store.safe_compact_version())

    return {
        "write_seconds": write_seconds,
        "read_seconds": read_seconds,
        "writes_per_second": (len(keys) + writes) / write_seconds,
        "reads_per_second": reads / read_seconds,
    }


def paging_experiment(
    num_keys: int = 256,
    value_bytes: int = 512,
    writes: int = 1024,
    reads: int = 4096,
    seed: int = 7,
) -> Dict[str, Any]:
    """Run the workload in all three regimes; returns the BENCH record."""
    keys = [f"k{i}" for i in range(num_keys)]
    dataset_bytes = num_keys * value_bytes
    points: List[Dict[str, Any]] = []

    store = TransactionalStore()
    point = {
        "backend": "memory",
        "pressure": 0.0,
        "cache_bytes": None,
        **_run_workload(store, keys, value_bytes, writes, reads, seed),
        "page_cache": {},
    }
    points.append(point)

    tmpdir = tempfile.mkdtemp(prefix="weaver-bench-")
    try:
        for run, pressure in enumerate((1.0,) + (4.0,) * REPEATS_AT_4X):
            # At pressure p the live set is p times the cache budget.
            # The 1x regime must hold every version chain, not just the
            # live set: updates append records that are only trimmed at
            # the compaction pass, so budget for all records plus each
            # one's wire header, key and fixed cache charge.
            cache_bytes = (
                int(dataset_bytes / pressure)
                if pressure > 1.0
                else (num_keys + writes) * (value_bytes + 128) * 2
            )
            path = os.path.join(tmpdir, f"bench-{run}.db")
            durable = DurableStore(path, cache_bytes=cache_bytes)
            try:
                measured = _run_workload(
                    durable, keys, value_bytes, writes, reads, seed
                )
                stats = durable.stats
                points.append({
                    "backend": "sqlite",
                    "pressure": pressure,
                    "cache_bytes": cache_bytes,
                    **measured,
                    "page_cache": {
                        "hits": stats.page_cache_hits,
                        "misses": stats.page_cache_misses,
                        "evictions": stats.page_cache_evictions,
                        "resident_bytes": stats.page_cache_bytes,
                    },
                })
            finally:
                durable.close()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    paged = [p["reads_per_second"] for p in points if p["pressure"] == 4.0]
    q1, median, q3 = statistics.quantiles(paged, n=4)
    return {
        "cpu_count": os.cpu_count() or 1,
        "num_keys": num_keys,
        "value_bytes": value_bytes,
        "dataset_bytes": dataset_bytes,
        "writes": writes,
        "reads": reads,
        "points": points,
        "reads_per_second_at_4x": {
            "median": median, "q1": q1, "q3": q3, "repeats": REPEATS_AT_4X,
        },
    }
