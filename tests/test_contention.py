"""The contention workload: Zipf sampling and OCC abort rates."""

import pytest

from repro.db import Weaver, WeaverClient, WeaverConfig
from repro.workloads.contention import (
    ZipfSampler,
    run_contention,
)


class TestZipfSampler:
    def test_rank_zero_is_hottest(self):
        sampler = ZipfSampler(100, s=1.2, seed=1)
        counts = {}
        for _ in range(5000):
            rank = sampler.sample()
            counts[rank] = counts.get(rank, 0) + 1
        assert counts[0] == max(counts.values())

    def test_zero_skew_is_roughly_uniform(self):
        sampler = ZipfSampler(10, s=0.0, seed=2)
        counts = [0] * 10
        for _ in range(10_000):
            counts[sampler.sample()] += 1
        assert max(counts) < 2 * min(counts)

    def test_samples_in_range(self):
        sampler = ZipfSampler(5, s=2.0, seed=3)
        assert all(0 <= sampler.sample() < 5 for _ in range(200))

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0)
        with pytest.raises(ValueError):
            ZipfSampler(10, -1.0)


class TestContentionStudy:
    @pytest.fixture
    def populated(self):
        db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=2))
        client = WeaverClient(db)
        names = [f"v{i}" for i in range(40)]
        with client.transaction() as tx:
            for name in names:
                tx.create_vertex(name)
        return db, names

    def test_abort_rate_grows_with_skew(self, populated):
        db, names = populated
        uniform = run_contention(db, names, skew=0.0, rounds=60, seed=4)
        skewed = run_contention(db, names, skew=2.5, rounds=60, seed=4)
        assert skewed.abort_rate > uniform.abort_rate

    def test_commits_plus_aborts_equals_attempts(self, populated):
        db, names = populated
        report = run_contention(db, names, skew=1.0, rounds=30, seed=5)
        assert report.commits + report.aborts == report.attempts

    def test_committed_increments_never_lost(self, populated):
        db, names = populated
        from repro.db import WeaverClient

        report = run_contention(db, names, skew=1.5, rounds=40, seed=6)
        client = WeaverClient(db)
        total = sum(
            client.get_node(name)["properties"].get("n", 0)
            for name in names
        )
        assert total == report.commits
