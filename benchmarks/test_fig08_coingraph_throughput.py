"""Fig 8: CoinGraph block-render throughput vs block height.

Paper's claim: throughput of block render queries decreases as block
height increases (later blocks hold more transactions), while the system
sustains 5,000-20,000 vertex reads per second throughout.

Measured on the simulated twin (8 shards, 16 clients), which loads
``FIG8_BLOCKS_PER_POINT`` blocks per point and renders among them.
"""

from repro.bench import harness

BASE_HEIGHTS = (1_000, 100_000, 150_000, 200_000, 250_000, 300_000, 350_000)


def run_experiment():
    return harness.experiment_fig8(
        base_heights=BASE_HEIGHTS, queries_per_point=40, clients=16
    )


def test_fig08_block_render_throughput(benchmark, show):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    show(
        "Fig 8: Block render throughput (queries from [x, x+100])",
        ["block", "queries/s", "vertex reads/s"],
        [
            (base, round(tx_s, 1), round(reads_s))
            for base, tx_s, reads_s in result.rows()
        ],
    )
    throughputs = [t for _, t, _ in result.rows()]
    # Monotone-ish decline: every later point below the first.
    assert all(t <= throughputs[0] for t in throughputs[1:])
    assert throughputs[-1] < throughputs[0] / 10
    # Sustained vertex-read rate stays in the paper's band at every point.
    for _, _, reads_s in result.rows():
        assert 5_000 <= reads_s <= 20_000
