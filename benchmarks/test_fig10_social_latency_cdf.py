"""Fig 10: transaction latency CDFs on the social-network workload.

Paper's claims: Weaver's node programs (reads) have lower latency than
its write transactions (writes also commit on the backing store); Titan's
heavyweight locking pushes even reads to tens of milliseconds; Weaver
beats Titan for all reads and most writes.

Weaver's latencies are the simulated twin's ``obs`` histograms.
"""

from repro.bench import harness
from repro.bench.report import format_series


def run_experiment():
    return harness.experiment_fig10(total_ops=4_000)


def test_fig10_latency_cdfs(benchmark, show):
    runs = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = []
    for fraction, run in sorted(runs.items(), reverse=True):
        for system, latencies in (
            ("Weaver", run.weaver_latencies),
            ("Titan", run.titan_latencies),
        ):
            rows.append((
                f"{system} ({fraction:.1%} reads)",
                round(latencies.quantile(0.5) * 1000, 2),
                round(latencies.quantile(0.99) * 1000, 2),
            ))
    show(
        "Fig 10: transaction latency on the LiveJournal-like graph",
        ["system (workload)", "p50 (ms)", "p99 (ms)"],
        rows,
        lines=[
            format_series(
                "Weaver 99.8% CDF (s, frac)",
                runs[0.998].weaver_latencies.cdf(points=8),
            ),
            format_series(
                "Titan 99.8% CDF (s, frac)",
                runs[0.998].titan_latencies.cdf(points=8),
            ),
        ],
    )
    tao = runs[0.998]
    mixed = runs[0.75]
    # Reads faster than writes in Weaver.
    assert (
        tao.weaver_read_latencies.mean < tao.weaver_write_latencies.mean
    )
    # Weaver below Titan at every quantile on the read-heavy mix.
    for q in (0.5, 0.9, 0.99):
        assert tao.weaver_latencies.quantile(q) < tao.titan_latencies.quantile(q)
    # And at the median on the mixed workload.
    assert (
        mixed.weaver_latencies.quantile(0.5)
        < mixed.titan_latencies.quantile(0.5)
    )
