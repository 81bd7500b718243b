"""Fig 14: proactive vs reactive coordination as the announce cadence
sweeps, on the twin.

Paper's claim: with a small announce period τ, gatekeeper announce
traffic is high but vector clocks order nearly everything (few oracle
calls); as τ grows, announce traffic falls and reliance on the timeline
oracle rises (toward ~1.2 messages per query in the paper's
accounting).  An intermediate τ balances the two.

Here τ is a commit count: every deployment announces once every
``announce_every`` commits (EXPERIMENTS.md, Known deviations: "Fig 14").
The twin (G = 3, two shards) takes 300 single-vertex creates 500 µs
apart at each cadence; the last cadence is larger than the run, so it
never announces, and its oracle traffic is the ceiling: exactly that of
a cadence-1 run whose every announce is lost.
"""

from repro.bench import harness
from repro.sim.faults import FaultPlan


def test_fig14_coordination_overhead(benchmark, show):
    result = benchmark.pedantic(
        harness.experiment_fig14, rounds=1, iterations=1
    )
    show(
        "Fig 14: coordination messages per transaction vs announce cadence",
        ["commits/announce", "announce msgs/tx", "oracle msgs/tx"],
        [(k, round(a, 4), round(o, 4)) for k, a, o in result.rows()],
    )
    rows = result.rows()
    announces = [a for _, a, _ in rows]
    oracle = [o for _, _, o in rows]
    # Announce overhead falls with the cadence, to nothing.
    assert announces == sorted(announces, reverse=True)
    assert announces[-1] == 0
    # Oracle reliance climbs from near zero.
    assert oracle[0] < 0.2
    assert oracle == sorted(oracle)
    # The minimum of the sum is interior.
    combined = [a + o for _, a, o in rows]
    assert min(combined) < combined[0]
    assert min(combined) < combined[-1]


def test_fig14_never_equals_every_announce_lost(benchmark, show):
    def run_both():
        never = harness.experiment_fig14(cadences=()).rows()[-1]
        lost = harness.fig14_point(
            1, fault_plan=FaultPlan(seed=1).drop(1.0, kinds=("announce",))
        )
        return never, lost

    never, lost = benchmark.pedantic(run_both, rounds=1, iterations=1)
    show(
        "Fig 14 ceiling: no announce vs every announce lost",
        ["run", "announce msgs/tx", "oracle msgs/tx"],
        [
            ("never announces", never[1], round(never[2], 4)),
            ("cadence 1, all lost", lost[1], round(lost[2], 4)),
        ],
    )
    assert never[2] == lost[2]
