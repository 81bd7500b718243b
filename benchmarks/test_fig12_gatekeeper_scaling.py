"""Fig 12: get_node throughput scales linearly with gatekeepers.

Paper's claim: get_node programs are vertex-local, so shards do little
work and the gatekeeper bank is the bottleneck; throughput grows
linearly, reaching ~250k tx/s at 6 gatekeepers on their hardware.

Measured on the simulated twin: real stamps, queues, NOPs and announce
timers, with gatekeeper, store and shard service time charged.
"""

from repro.bench import harness

GK_COUNTS = (1, 2, 3, 4, 5, 6)
OPS = 4_000


def run_experiment():
    return harness.experiment_fig12(
        gatekeeper_counts=GK_COUNTS, ops=OPS, clients=128
    )


def test_fig12_gatekeeper_scaling(benchmark, show):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    show(
        "Fig 12: get_node throughput vs gatekeeper count",
        ["gatekeepers", "tx/s", "completed", "failed"],
        [
            (n, round(t), run.completed, run.failed)
            for (n, t), run in zip(result.rows(), result.runs)
        ],
        lines=[f"linearity (1.0 = ideal): {result.linearity:.3f}"],
    )
    for run in result.runs:
        assert run.completed == OPS
        assert run.failed == 0
    throughputs = [t for _, t in result.rows()]
    assert throughputs == sorted(throughputs)
    assert result.linearity > 0.85
    # 6 gatekeepers deliver ~6x one gatekeeper.
    assert throughputs[-1] / throughputs[0] > 4.5
