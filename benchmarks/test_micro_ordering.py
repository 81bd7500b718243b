"""Ordering fast-path microbenchmark (ISSUE: ordering fast path).

Times an oracle-heavy schedule — ≥ 500 events, ≥ 30 % vclock-concurrent
pairs — against the skyline-indexed oracle and the seed-equivalent
reference, asserts the ≥ 3x speedup acceptance bar, and records the
result as ``BENCH_ordering.json`` at the repo root, with the
``cpu_count`` it was measured on.
"""

import json
import os
import pathlib

from tests.oracle_reference import build_workload, compare_fastpath

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_workload_shape():
    """The recorded workload actually is oracle-heavy."""
    workload = build_workload()
    assert len(workload.stamps) >= 500
    assert workload.concurrent_fraction >= 0.30


def test_indexed_oracle_speedup(show):
    result = {"cpu_count": os.cpu_count() or 1, **compare_fastpath()}
    (REPO_ROOT / "BENCH_ordering.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    show(
        "Ordering fast path: indexed oracle vs seed reference",
        headers=["metric", "value"],
        rows=[
            ["events", result["num_events"]],
            ["pairs ordered + re-queried", result["num_pairs"]],
            ["concurrent fraction", f"{result['concurrent_fraction']:.1%}"],
            ["indexed (s)", f"{result['indexed_seconds']:.3f}"],
            ["reference (s)", f"{result['reference_seconds']:.3f}"],
            ["speedup", f"{result['speedup']:.2f}x"],
            ["BFS expansions", result["indexed_counters"]["bfs_expansions"]],
            ["BFS pruned", result["indexed_counters"]["bfs_pruned"]],
        ],
    )
    assert result["concurrent_fraction"] >= 0.30
    assert result["speedup"] >= 3.0, (
        f"indexed oracle only {result['speedup']:.2f}x faster than the "
        f"seed reference (need >= 3x)"
    )
