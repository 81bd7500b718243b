"""Fig 12: get_node throughput scales linearly with gatekeepers.

Paper's claim: get_node programs are vertex-local, so shards do little
work and the gatekeeper bank is the bottleneck; throughput grows
linearly, reaching ~250k tx/s at 6 gatekeepers on their hardware.
"""

from repro.bench import harness

GK_COUNTS = (1, 2, 3, 4, 5, 6)


def run_experiment():
    return harness.experiment_fig12(
        gatekeeper_counts=GK_COUNTS, ops=20_000, clients=128
    )


def test_fig12_gatekeeper_scaling(benchmark, show):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    show(
        "Fig 12: get_node throughput vs gatekeeper count",
        ["gatekeepers", "tx/s"],
        [(n, round(t)) for n, t in result.rows()],
        lines=[f"linearity (1.0 = ideal): {result.linearity:.3f}"],
    )
    throughputs = [t for _, t in result.rows()]
    assert throughputs == sorted(throughputs)
    assert result.linearity > 0.85
    # 6 gatekeepers deliver ~6x one gatekeeper.
    assert throughputs[-1] / throughputs[0] > 4.5


def run_protocol_level(gk_counts=(1, 2, 4), ops_per_point=100, clients=16):
    """The same scaling measured on the event-driven deployment: real
    stamps, queues, NOPs, and announce timers, with gatekeeper service
    time charged — an independent check on the cost-model curve."""
    from repro.bench.costmodel import CostParams
    from repro.db import operations as ops
    from repro.db.config import WeaverConfig
    from repro.programs import GetNode
    from repro.sim.clock import USEC
    from repro.sim.deployment import SimulatedWeaver
    from repro.sim.workload import SimClients, finite_stream

    rows = []
    for gks in gk_counts:
        sw = SimulatedWeaver(
            WeaverConfig(num_gatekeepers=gks, num_shards=2),
            tau=200 * USEC,
            nop_period=200 * USEC,
            costs=CostParams(),
        )
        done = []
        sw.submit_transaction(
            [ops.CreateVertex("a")],
            callback=lambda ok, v: done.append(ok),
        )
        sw.run(0.05)
        assert done == [True]
        driver = SimClients(
            sw,
            clients,
            finite_stream([("prog", GetNode(), "a", None)] * ops_per_point),
        )
        driver.start()
        driver.run_to_completion(max_sim_seconds=60)
        rows.append((gks, driver.throughput))
    return rows


def test_fig12_protocol_level_cross_check(benchmark, show):
    rows = benchmark.pedantic(run_protocol_level, rounds=1, iterations=1)
    show(
        "Fig 12 (event-driven protocol cross-check)",
        ["gatekeepers", "get_node tx/s (simulated)"],
        [(g, round(t)) for g, t in rows],
    )
    throughputs = [t for _, t in rows]
    assert throughputs == sorted(throughputs)
    assert throughputs[-1] > 2 * throughputs[0]
