"""Fig 11: traversal latency CDF — Weaver vs GraphLab (sync & async).

Paper's claims: on reachability BFS over a small Twitter graph with a
sequential client, Weaver averages 4.3x lower latency than asynchronous
GraphLab and 9.4x lower than synchronous GraphLab, despite supporting
online transactional updates; latency variance is high because the work
per query varies enormously.

Weaver's latencies are measured on the simulated twin, which runs each
traversal round by round across its shards and lands near asynchronous
GraphLab, not 4.3x below it (EXPERIMENTS.md, Known deviations: "Fig 11").
"""

from repro.bench import harness
from repro.bench.report import format_series, ratio_check

PAPER_VS_ASYNC = 4.3
PAPER_VS_SYNC = 9.4


def run_experiment():
    return harness.experiment_fig11(
        num_vertices=400, num_queries=40, num_shards=8, num_machines=8
    )


def test_fig11_traversal_latency(benchmark, show):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    show(
        "Fig 11: reachability traversal latency (simulated)",
        ["system", "mean (ms)", "p50 (ms)", "p99 (ms)"],
        [
            (
                name,
                round(rec.mean * 1000, 3),
                round(rec.quantile(0.5) * 1000, 3),
                round(rec.quantile(0.99) * 1000, 3),
            )
            for name, rec in (
                ("Weaver", result.weaver),
                ("GraphLab async", result.graphlab_async),
                ("GraphLab sync", result.graphlab_sync),
            )
        ],
        lines=[
            ratio_check(
                "vs async", result.speedup_vs_async, PAPER_VS_ASYNC, 0.7
            ),
            ratio_check(
                "vs sync", result.speedup_vs_sync, PAPER_VS_SYNC, 0.7
            ),
            format_series("Weaver CDF", result.weaver.cdf(points=6)),
            format_series(
                "GraphLab sync CDF", result.graphlab_sync.cdf(points=6)
            ),
        ],
    )
    assert result.weaver_run.completed == 40
    assert result.answers_agree, "systems disagreed on reachability"
    assert result.speedup_vs_sync > result.speedup_vs_async
    # The twin's band, not the paper's (Known deviations: "Fig 11"):
    # 0.87x against async GraphLab, 2.2x against sync.
    assert 0.6 <= result.speedup_vs_async <= 1.5
    assert 1.5 <= result.speedup_vs_sync <= 3.5
