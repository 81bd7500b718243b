"""The discrete-event simulation substrate."""

import pytest

from repro.sim.clock import MSEC, SEC, USEC, SimClock
from repro.sim.network import Network
from repro.sim.simulator import Server, Simulator


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(1.5)
        assert clock.now == 1.5

    def test_no_backwards_travel(self):
        clock = SimClock(1.0)
        with pytest.raises(ValueError):
            clock.advance_to(0.5)

    def test_advance_by(self):
        clock = SimClock()
        clock.advance_by(2.0)
        assert clock.now == 2.0

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance_by(-1)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1)

    def test_units(self):
        assert USEC == pytest.approx(1e-6)
        assert MSEC == pytest.approx(1e-3)
        assert SEC == 1.0


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.run()
        assert order == ["a", "b"]

    def test_ties_run_fifo(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "first")
        sim.schedule(1.0, order.append, "second")
        sim.run()
        assert order == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.run()
        assert sim.now == 3.0

    def test_run_until_stops_early(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 5)
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        assert sim.pending() == 1

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, 1)
        event.cancel()
        sim.run()
        assert fired == []

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert seen == [0, 1, 2, 3]

    def test_step_returns_false_when_empty(self):
        assert not Simulator().step()

    def test_events_run_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_run == 1


class TestServer:
    def test_idle_server_serves_immediately(self):
        sim = Simulator()
        server = Server(sim)
        assert server.occupy(2.0) == 2.0

    def test_busy_server_queues(self):
        sim = Simulator()
        server = Server(sim)
        server.occupy(2.0)
        assert server.occupy(1.0) == 3.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            Server(Simulator()).occupy(-1)

    def test_utilization(self):
        sim = Simulator()
        server = Server(sim)
        server.occupy(1.0)
        sim.schedule(4.0, lambda: None)
        sim.run()
        assert server.utilization() == pytest.approx(0.25)


class TestNetwork:
    def test_delivery_after_latency(self):
        sim = Simulator()
        net = Network(sim, latency=1 * MSEC)
        arrivals = []
        net.send("a", "b", lambda: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [pytest.approx(1 * MSEC)]

    def test_fifo_per_channel_despite_latency_override(self):
        sim = Simulator()
        net = Network(sim, latency=1 * MSEC)
        arrivals = []
        net.send("a", "b", lambda: arrivals.append("slow"), latency=5 * MSEC)
        net.send("a", "b", lambda: arrivals.append("fast"), latency=1 * MSEC)
        sim.run()
        assert arrivals == ["slow", "fast"]

    def test_channels_are_independent(self):
        sim = Simulator()
        net = Network(sim, latency=1 * MSEC)
        arrivals = []
        net.send("a", "b", lambda: arrivals.append("ab"), latency=5 * MSEC)
        net.send("c", "b", lambda: arrivals.append("cb"), latency=1 * MSEC)
        sim.run()
        assert arrivals == ["cb", "ab"]

    def test_seqnos_increment_per_channel(self):
        sim = Simulator()
        net = Network(sim)
        assert net.send("a", "b", lambda: None) == 0
        assert net.send("a", "b", lambda: None) == 1
        assert net.send("a", "c", lambda: None) == 0

    def test_message_kinds_counted(self):
        sim = Simulator()
        net = Network(sim)
        net.send("a", "b", lambda: None, kind="announce")
        net.send("a", "b", lambda: None, kind="announce")
        net.send("a", "b", lambda: None, kind="tx")
        assert net.stats.count("announce") == 2
        assert net.stats.total == 3

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Network(Simulator(), latency=-1)
