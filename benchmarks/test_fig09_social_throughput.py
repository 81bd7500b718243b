"""Fig 9: social-network throughput — Weaver vs Titan.

Paper's claims: (a) on the TAO mix (99.8% reads, Table 1) Weaver
outperforms Titan by 10.9x, with 0.0013% of transactions reactively
ordered; (b) on a 75%-read mix the gap narrows to 1.5x, with 1.7%
reactively ordered; Titan's throughput is nearly flat (~2k tx/s) across
mixes because it pessimistically locks everything either way.

Weaver's throughput and reactively ordered fraction are measured on the
same simulated twin run.
"""

from repro.bench import harness
from repro.bench.report import ratio_check

PAPER = {0.998: 10.9, 0.75: 1.5}
OPS = 4_000


def run_tao():
    return harness.experiment_fig9(
        0.998, clients_weaver=50, clients_titan=60,
        total_ops=OPS, num_vertices=300,
    )


def run_mixed():
    return harness.experiment_fig9(
        0.75, clients_weaver=45, clients_titan=50,
        total_ops=OPS, num_vertices=300,
    )


def test_fig09a_tao_mix(benchmark, show):
    result = benchmark.pedantic(run_tao, rounds=1, iterations=1)
    show(
        "Fig 9a: TAO workload (99.8% reads) throughput",
        ["system", "clients", "tx/s"],
        [
            ("Weaver", result.clients_weaver,
             round(result.weaver_throughput)),
            ("Titan", result.clients_titan,
             round(result.titan_throughput)),
        ],
        lines=[
            ratio_check("Weaver/Titan", result.speedup, PAPER[0.998]),
            f"reactively ordered: measured {result.reactive_fraction:.5%} "
            f"(paper: 0.0013%)",
        ],
    )
    assert result.weaver_run.completed == OPS
    assert result.weaver_run.failed == 0
    assert 5 <= result.speedup <= 25
    assert result.reactive_fraction < 0.02


def test_fig09b_75pct_reads(benchmark, show):
    result = benchmark.pedantic(run_mixed, rounds=1, iterations=1)
    show(
        "Fig 9b: 75% read workload throughput",
        ["system", "clients", "tx/s"],
        [
            ("Weaver", result.clients_weaver,
             round(result.weaver_throughput)),
            ("Titan", result.clients_titan,
             round(result.titan_throughput)),
        ],
        lines=[
            ratio_check("Weaver/Titan", result.speedup, PAPER[0.75]),
            f"reactively ordered: measured {result.reactive_fraction:.3%} "
            f"(paper: 1.7%)",
        ],
    )
    assert 1.0 <= result.speedup <= 3.5
    assert result.reactive_fraction < 0.05
