"""Small-scale figure numbers, pinned by value like the referee digests.

Every series below is deterministic simulated time: the twin's
(``SimulatedWeaver`` with ``CostParams``), or a baseline's cost model.
A number that moves means a protocol or cost-model change moved
simulated performance; it needs one recorded cause (EXPERIMENTS.md) and
a re-pin here.
"""

import pytest

from repro.bench import harness


@pytest.fixture(scope="module")
def fig7_rows():
    return harness.experiment_fig7(heights=(1_000, 100_000)).rows()


def test_fig7_coingraph(fig7_rows):
    assert [(h, n, cg) for h, n, cg, _, _ in fig7_rows] == [
        (1_000, 1, 0.002009999999999991),
        (100_000, 33, 0.024409999999999935),
    ]


def test_fig7_blockchain_info(fig7_rows):
    assert [(h, n, bc) for h, n, _, bc, _ in fig7_rows] == [
        (1_000, 1, 0.032),
        (100_000, 33, 0.224),
    ]


def test_fig8_coingraph():
    rows = harness.experiment_fig8(
        base_heights=(1_000, 100_000), queries_per_point=16
    ).rows()
    assert rows == [
        (1_000, 1993.769470404992, 3987.538940809984),
        (100_000, 315.0846790074834, 10712.879086254434),
    ]


@pytest.mark.parametrize("mix,titan,weaver", [
    pytest.param(
        (0.998, 50, 60),
        (1991.7938095048385, 0.022114674556213024, 0.03025389349112428),
        (16103.059581320567, 0.0017473015873015873, 0.004062967741935484),
        id="9a",
    ),
    pytest.param(
        (0.75, 45, 50),
        (1991.7938095048385, 0.02007325443786983, 0.025313065088757414),
        (3275.466754012447, 0.001472, 0.051178370370370416),
        id="9b",
    ),
])
def test_fig9_titan_and_twin(mix, titan, weaver):
    run = harness.experiment_fig9(
        *mix, total_ops=200, num_vertices=150, measure_reactive=False
    )
    for throughput, latencies, pinned in (
        (run.titan_throughput, run.titan_latencies, titan),
        (run.weaver_throughput, run.weaver_latencies, weaver),
    ):
        assert (
            throughput, latencies.quantile(0.5), latencies.quantile(0.99)
        ) == pinned


def test_fig11_graphlab_and_twin():
    result = harness.experiment_fig11(num_vertices=150, num_queries=12)
    assert (
        result.graphlab_async.mean,
        result.graphlab_sync.mean,
        result.weaver.mean,
    ) == (0.001397, 0.003245770833333336, 0.0014100833333333257)


def test_fig12_twin_point():
    rows = harness.experiment_fig12(
        gatekeeper_counts=(2,), ops=300, clients=64
    ).rows()
    assert rows == [(2, 16116.901257118396)]


def test_fig13_twin_point():
    rows = harness.experiment_fig13(
        shard_counts=(2,), ops=100, clients=48, num_vertices=100
    ).rows()
    assert rows == [(2, 15045.13540621873)]


def test_a7_kineograph_and_twin():
    rows = harness.ablation_freshness(
        epoch_intervals=(1.0,), num_updates=50
    ).rows()
    assert rows == [(1.0, 0.38197319720013956, 0.00522)]
