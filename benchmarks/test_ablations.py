"""Ablations: the design choices DESIGN.md calls out.

A1 — node-program memoization (section 4.6) on ``Weaver``: hit rate and
     reads saved under a read-mostly workload with invalidating writes.
A5-A9 — adaptive τ, OCC contention, freshness vs Kineograph's epochs,
     distributed-store chains and live rebalancing; each test says what
     it runs.
"""

from repro.bench import harness


def test_a1_program_caching(benchmark, show):
    result = benchmark.pedantic(
        lambda: harness.ablation_caching(
            num_blocks=8, queries=150, write_every=25
        ),
        rounds=1,
        iterations=1,
    )
    show(
        "A1: node-program memoization (block-render workload)",
        ["metric", "value"],
        [
            ("cold-equivalent vertex reads", result.cold_reads),
            ("actual vertex reads", result.cached_reads),
            ("reads saved", f"{result.reads_saved_fraction:.1%}"),
            ("cache hit rate", f"{result.hit_rate:.1%}"),
            ("invalidations", result.invalidations),
        ],
    )
    assert result.hit_rate > 0.3
    assert result.reads_saved_fraction > 0.3
    assert result.invalidations > 0  # writes really do invalidate


def test_a5_adaptive_tau(benchmark, show):
    """Section 3.5's dynamic τ: started at either extreme of 1 … 64
    commits per announce round, the feedback controller moves the
    twin's cadence into the Fig 14 minimum's neighbourhood."""

    def run_both():
        high = harness.ablation_adaptive_tau(start=64)
        low = harness.ablation_adaptive_tau(start=1)
        return high, low

    high, low = benchmark.pedantic(run_both, rounds=1, iterations=1)
    show(
        "A5: adaptive announce cadence (section 3.5)",
        ["start (commits/announce)", "final (commits/announce)"],
        [(high.start, high.final), (low.start, low.final)],
        lines=[
            "trajectory from high: "
            + " -> ".join(str(k) for k in high.trajectory[:8]),
            "trajectory from low:  "
            + " -> ".join(str(k) for k in low.trajectory[:8]),
        ],
    )
    # Fig 14's minimum of announce + oracle messages per transaction is
    # at cadence 8, with 4 and 16 within 3% of it.
    for run in (high, low):
        assert 4 <= run.final <= 16


def test_a6_occ_contention(benchmark, show):
    """OCC abort rate vs write skew — why long reads don't use OCC."""
    result = benchmark.pedantic(
        lambda: harness.ablation_contention(),
        rounds=1,
        iterations=1,
    )
    show(
        "A6: OCC abort rate vs Zipf write skew",
        ["skew s", "abort rate"],
        [(s, f"{rate:.1%}") for s, rate in result.rows()],
    )
    rates = [rate for _, rate in result.rows()]
    assert rates[-1] > rates[0]


def test_a7_freshness_vs_kineograph(benchmark, show):
    """Update-visibility lag: refinable timestamps vs epoch snapshots."""
    result = benchmark.pedantic(
        lambda: harness.ablation_freshness(),
        rounds=1,
        iterations=1,
    )
    show(
        "A7: update-visibility lag (s), Weaver vs Kineograph",
        [
            "epoch interval",
            "Kineograph mean lag (interval / 2)",
            "Weaver lag",
        ],
        [
            (interval, round(kg, 3), f"{weaver:.4f}")
            for interval, kg, weaver in result.rows()
        ],
    )
    for _, kg_lag, weaver_lag in result.rows():
        assert weaver_lag < kg_lag / 50


def test_a9_online_rebalance(benchmark, show):
    """Dynamic colocation: edge cut before/after live migration."""
    result = benchmark.pedantic(
        lambda: harness.ablation_rebalance(),
        rounds=1,
        iterations=1,
    )
    show(
        "A9: online vertex migration (section 4.6)",
        ["metric", "value"],
        [
            ("edges", result.total_edges),
            ("cut before", result.cut_before),
            ("cut after", result.cut_after),
            ("migrations", result.moves),
            ("cut reduction", f"{result.improvement:.1%}"),
        ],
    )
    assert result.moves > 0
    assert result.cut_after < result.cut_before


def test_a8_store_linear_transactions(benchmark, show):
    """Chain length of Warp-style commits vs keys per transaction."""
    result = benchmark.pedantic(
        lambda: harness.ablation_store_chains(),
        rounds=1,
        iterations=1,
    )
    show(
        "A8: distributed-store linear transactions (8 nodes, r=2)",
        ["keys/tx", "mean chain length", "messages/commit"],
        [
            (k, round(chain, 2), round(msgs, 2))
            for k, chain, msgs in result.rows()
        ],
    )
    chains = [chain for _, chain, _ in result.rows()]
    assert chains == sorted(chains)         # grows with keys touched
    assert chains[-1] <= 8                  # saturates at the node count

