"""Durable-store paging benchmark, archived as ``BENCH_storage.json``.

Durable vs in-memory store throughput at 1x and 4x memory pressure
(live set vs page-cache budget).  The assertions are structural — each
regime must actually exercise the path its label claims (no evictions
when the cache fits, continuous paging at 4x) — so the guard is stable
on loaded CI machines; the archived JSON carries the wall-clock numbers
for trend tracking.

Run with::

    python -m pytest benchmarks/test_storage_paging.py -q
"""

import json
import pathlib

from repro.bench.storage_bench import paging_experiment

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_storage_paging(show):
    result = paging_experiment()
    (REPO_ROOT / "BENCH_storage.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    show(
        "Backing store: throughput vs memory pressure",
        headers=["backend", "pressure", "writes/s", "reads/s", "evictions"],
        rows=[
            [
                p["backend"],
                p["pressure"] or "-",
                round(p["writes_per_second"]),
                round(p["reads_per_second"]),
                p["page_cache"].get("evictions", "-"),
            ]
            for p in result["points"]
        ],
        lines=[
            f"dataset: {result['dataset_bytes']} bytes",
            "reads/s at 4x pressure over {repeats} stores: median "
            "{median:.0f}, quartiles {q1:.0f}-{q3:.0f}".format(
                **result["reads_per_second_at_4x"]
            ),
        ],
    )
    by_label = {
        (p["backend"], p["pressure"]): p for p in result["points"]
    }
    fits = by_label[("sqlite", 1.0)]
    paged = by_label[("sqlite", 4.0)]
    # 1x: the live set fits — after the initial load the cache serves
    # reads without evicting.
    assert fits["page_cache"]["evictions"] == 0
    assert fits["page_cache"]["hits"] > 0
    # 4x: the live set is four times the budget — the store must page.
    assert paged["page_cache"]["evictions"] > 0
    assert paged["page_cache"]["resident_bytes"] <= paged["cache_bytes"]
    # Everything still functions at speed in every regime.
    for point in result["points"]:
        assert point["writes_per_second"] > 0
        assert point["reads_per_second"] > 0
