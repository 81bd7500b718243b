"""Fig 14: proactive vs reactive coordination as τ sweeps 10 µs - 1 s.

Paper's claim: with a small announce period τ, gatekeeper announce
traffic is high but vector clocks order nearly everything (few oracle
calls); as τ grows, announce traffic falls and reliance on the timeline
oracle rises (toward ~1.2 messages per query in the paper's
accounting).  An intermediate τ balances the two.

Our accounting is one oracle message per reactive decision, and the
experiment orders consecutive arrivals from G uniformly chosen
gatekeepers.  Once τ outlasts the run nothing is ever announced, so a
pair is concurrent exactly when two different gatekeepers stamped it:
the ceiling is the cross-gatekeeper pair fraction (G − 1) / G (measured
0.49 / 0.66 / 0.74 / 0.83 at G = 2 / 3 / 4 / 6), not 1.2.
"""

import pytest

from repro.bench import harness
from repro.sim.clock import MSEC, USEC

TAUS = (10 * USEC, 100 * USEC, 1 * MSEC, 10 * MSEC, 100 * MSEC, 1.0)
GATEKEEPERS = 3


def run_experiment():
    return harness.experiment_fig14(
        taus=TAUS, num_gatekeepers=GATEKEEPERS, num_txs=3_000
    )


def test_fig14_coordination_overhead(benchmark, show):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    show(
        "Fig 14: coordination messages per query vs announce period",
        ["tau (s)", "announce msgs/query", "oracle msgs/query"],
        [
            (f"{tau:g}", round(a, 4), round(o, 4))
            for tau, a, o in result.rows()
        ],
    )
    rows = result.rows()
    announces = [a for _, a, _ in rows]
    oracle = [o for _, _, o in rows]
    # Announce overhead strictly falls with tau.
    assert all(x >= y for x, y in zip(announces, announces[1:]))
    # Oracle reliance climbs from near zero to the cross-gatekeeper pair
    # fraction (3,000 sampled pairs: within 0.05 is over five sigma).
    assert oracle[0] < 0.2
    assert oracle[-1] == pytest.approx(
        (GATEKEEPERS - 1) / GATEKEEPERS, abs=0.05
    )
    # Crossover exists: some intermediate tau has both overheads low.
    combined = [a + o for _, a, o in rows]
    assert min(combined) < combined[0]
    assert min(combined) < combined[-1]


def run_event_driven(taus=(100 * USEC, 1 * MSEC, 5 * MSEC)):
    """The same tradeoff from the event-driven deployment: actual τ
    timers, network latency, and FIFO channels — an independent check
    on the arrival-process experiment above."""
    from repro.db import operations as ops
    from repro.db.config import WeaverConfig
    from repro.sim.deployment import SimulatedWeaver

    rows = []
    for tau in taus:
        sw = SimulatedWeaver(
            WeaverConfig(num_gatekeepers=3, num_shards=2),
            tau=tau,
            nop_period=500 * USEC,
        )
        n_txs = 60
        for i in range(n_txs):
            sw.submit_transaction([ops.CreateVertex(f"v{i}")])
            sw.run(500 * USEC)
        sw.run(5 * MSEC)
        rows.append(
            (
                tau,
                sw.announce_messages() / n_txs,
                sw.oracle_messages() / n_txs,
            )
        )
    return rows


def test_fig14_event_driven_cross_check(benchmark, show):
    rows = benchmark.pedantic(run_event_driven, rounds=1, iterations=1)
    show(
        "Fig 14 (event-driven deployment cross-check)",
        ["tau (s)", "announce msgs/tx", "oracle msgs/tx"],
        [(f"{t:g}", round(a, 2), round(o, 2)) for t, a, o in rows],
    )
    announces = [a for _, a, _ in rows]
    oracle = [o for _, _, o in rows]
    assert announces == sorted(announces, reverse=True)
    assert oracle[-1] > oracle[0]
