"""Dynamic τ adjustment (section 3.5's workload-adaptive announce period)."""

import pytest

from repro.db import operations as ops
from repro.db.config import WeaverConfig
from repro.sim.clock import MSEC, USEC
from repro.sim.deployment import SimulatedWeaver, TauController


class TestTauController:
    def test_initial_tau_respected(self):
        controller = TauController(1 * MSEC)
        assert controller.tau == 1 * MSEC

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            TauController(1.0, bounds=(10 * USEC, 10 * MSEC))
        with pytest.raises(ValueError):
            TauController(1 * MSEC, factor=1.0)

    def test_oracle_pressure_shrinks_tau(self):
        controller = TauController(1 * MSEC)
        new_tau = controller.observe(
            oracle_messages=50, announce_messages=10, committed=100
        )
        assert new_tau == pytest.approx(0.5 * MSEC)

    def test_announce_chatter_grows_tau(self):
        controller = TauController(1 * MSEC, balance_ratio=8.0)
        new_tau = controller.observe(
            oracle_messages=2, announce_messages=500, committed=100
        )
        assert new_tau == pytest.approx(2 * MSEC)

    def test_balanced_window_leaves_tau_alone(self):
        controller = TauController(1 * MSEC, balance_ratio=8.0)
        new_tau = controller.observe(
            oracle_messages=20, announce_messages=100, committed=100
        )
        assert new_tau == pytest.approx(1 * MSEC)

    def test_tau_never_escapes_bounds(self):
        controller = TauController(
            20 * USEC, bounds=(10 * USEC, 100 * USEC)
        )
        for _ in range(10):
            controller.observe(1000, 10, 10)
        assert controller.tau == pytest.approx(10 * USEC)
        for _ in range(10):
            controller.observe(0, 10_000, 10)
        assert controller.tau == pytest.approx(100 * USEC)

    def test_idle_window_no_adjustment(self):
        controller = TauController(1 * MSEC)
        assert controller.observe(0, 0, 0) == pytest.approx(1 * MSEC)

    def test_adjustment_history_recorded(self):
        controller = TauController(1 * MSEC)
        controller.observe(50, 0, 100)
        controller.observe(50, 0, 100)
        assert len(controller.adjustments) == 2


class TestAdaptiveDeployment:
    def drive(self, sw, seconds, txs_per_window=20):
        """Submit a steady write load while time advances."""
        window = sw.adapt_window
        steps = int(seconds / window)
        n = 0
        for _ in range(steps):
            for _ in range(txs_per_window):
                handle = f"v{n}"
                n += 1
                sw.submit_transaction([ops.CreateVertex(handle)])
            sw.run(window)

    def test_oracle_heavy_start_converges_down(self):
        controller = TauController(
            8 * MSEC, bounds=(50 * USEC, 8 * MSEC)
        )
        sw = SimulatedWeaver(
            WeaverConfig(num_gatekeepers=3, num_shards=2),
            nop_period=500 * USEC,
            tau_controller=controller,
            adapt_window=4 * MSEC,
        )
        self.drive(sw, seconds=0.08)
        assert sw.tau < 8 * MSEC
        assert controller.tau == sw.tau

    def test_quiescent_system_backs_off(self):
        controller = TauController(
            100 * USEC, bounds=(100 * USEC, 50 * MSEC),
            balance_ratio=4.0,
        )
        sw = SimulatedWeaver(
            WeaverConfig(num_gatekeepers=3, num_shards=2),
            nop_period=2 * MSEC,
            tau_controller=controller,
            adapt_window=4 * MSEC,
        )
        # A trickle of transactions: announces vastly outnumber work.
        self.drive(sw, seconds=0.08, txs_per_window=1)
        assert sw.tau > 100 * USEC
