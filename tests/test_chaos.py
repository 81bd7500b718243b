"""Chaos smoke tests (tier-1): seeded fault runs stay consistent.

Three fixed seeds, a short horizon.  Each run crashes one gatekeeper and
one shard, partitions a gatekeeper-shard pair, and sprinkles message
drops/duplicates/delays — and must still produce a history with zero
strict-serializability violations.  The same seed must reproduce the
bit-for-bit identical history (the determinism guarantee every chaos
debugging session depends on).
"""

import pytest

from repro.db.config import WeaverConfig
from repro.sim.clock import MSEC
from repro.workloads.chaos import default_fault_plan, run_chaos

SEEDS = (1, 2, 3)
HORIZON = 30 * MSEC

_cache = {}


def chaos(seed):
    if seed not in _cache:
        _cache[seed] = run_chaos(seed, duration=HORIZON)
    return _cache[seed]


@pytest.mark.parametrize("seed", SEEDS)
class TestSeededRuns:
    def test_zero_violations(self, seed):
        report = chaos(seed)
        assert report.violations == []
        assert report.consistent

    def test_both_crash_kinds_recovered(self, seed):
        # The default plan kills one gatekeeper and one shard.
        assert chaos(seed).recoveries >= 2

    def test_made_progress_under_faults(self, seed):
        report = chaos(seed)
        assert report.committed > 0
        assert report.reads_completed > 0

    def test_faults_actually_fired(self, seed):
        faults = chaos(seed).faults
        for kind in ("drop", "duplicate", "delay", "partition"):
            assert faults.get(kind, 0) > 0, kind


class TestDeterminism:
    def test_same_seed_identical_history(self):
        first = chaos(SEEDS[0])
        second = run_chaos(SEEDS[0], duration=HORIZON)
        assert first.digest == second.digest
        assert first.history.canonical() == second.history.canonical()
        assert first.committed == second.committed
        assert first.faults == second.faults

    def test_different_seeds_different_histories(self):
        digests = {chaos(seed).digest for seed in SEEDS}
        assert len(digests) == len(SEEDS)


class TestEveryAnnounceLost:
    """The default plan plus every ``announce`` dropped: vector clocks
    then order only what one gatekeeper stamped or a heartbeat chain
    links, and the oracle orders the rest.  Nothing is lost for it."""

    @pytest.fixture(scope="class")
    def silent(self):
        config = WeaverConfig()
        return {
            seed: run_chaos(seed, duration=HORIZON, plan=default_fault_plan(
                seed, HORIZON, config.num_gatekeepers, config.num_shards,
            ).drop(1.0, kinds=("announce",)))
            for seed in SEEDS
        }

    def test_the_referee_is_clean(self, silent):
        for report in silent.values():
            assert report.violations == []
            assert report.committed > 0

    def test_no_read_is_lost_for_it(self, silent):
        for seed, report in silent.items():
            assert report.reads_lost == chaos(seed).reads_lost

    def test_the_oracle_orders_what_announces_would_have(self, silent):
        def oracle(reports):
            return sum(r.metrics["oracle.messages"] for r in reports)

        assert oracle(silent.values()) >= 5 * oracle(map(chaos, SEEDS))
