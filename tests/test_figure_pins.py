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
        (1_000, 1, 0.0018299999999999983),
        (100_000, 33, 0.024229999999999998),
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
        (1_000, 2297.200287150035, 4594.40057430007),
        (100_000, 317.42882650530703, 10792.58010118044),
    ]


@pytest.mark.parametrize("mix,titan,weaver", [
    pytest.param(
        (0.998, 50, 60),
        (1991.7938095048385, 0.022114674556213024, 0.03025389349112428),
        (16103.059581320567, 0.0015185454545454545, 0.0038399999999999997),
        id="9a",
    ),
    pytest.param(
        (0.75, 45, 50),
        (1991.7938095048385, 0.02007325443786983, 0.025313065088757414),
        (3275.466754012447, 0.0014187951807228916, 0.051456888888888955),
        id="9b",
    ),
])
def test_fig9_titan_and_twin(mix, titan, weaver):
    run = harness.experiment_fig9(*mix, total_ops=200, num_vertices=150)
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
    ) == (0.001397, 0.003245770833333336, 0.0010372499999999954)


def test_fig12_twin_point():
    rows = harness.experiment_fig12(
        gatekeeper_counts=(2,), ops=300, clients=64
    ).rows()
    assert rows == [(2, 16380.910778639301)]


def test_fig13_twin_point():
    rows = harness.experiment_fig13(
        shard_counts=(2,), ops=100, clients=48, num_vertices=100
    ).rows()
    assert rows == [(2, 16542.597187758405)]


def test_a7_kineograph_and_twin():
    rows = harness.ablation_freshness(epoch_intervals=(1.0,)).rows()
    assert rows == [(1.0, 0.5, 0.00522)]
