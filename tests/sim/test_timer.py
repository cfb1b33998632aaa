"""Unit tests for one-shot and periodic timers."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.timer import PeriodicTimer, Timer


def test_timer_fires_after_delay(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(2.0)
    assert timer.running
    sim.run()
    assert fired == [2.0]
    assert not timer.running


def test_timer_cancel_prevents_firing(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    timer.cancel()
    sim.run()
    assert fired == []
    assert not timer.running


def test_timer_restart_supersedes_previous_schedule(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    timer.start(3.0)
    sim.run()
    assert fired == [3.0]


def test_rejected_restart_keeps_the_pending_expiry(sim):
    # Regression: start() used to cancel the pending expiry before checking
    # the new delay, so a rejected restart silently disarmed the timer.
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    with pytest.raises(SimulationError):
        timer.start(-0.5)
    assert timer.running
    assert timer.expiry_time == 1.0
    sim.run()
    assert fired == [1.0]


def test_timer_start_rejects_nan_delay(sim):
    timer = Timer(sim, lambda: None)
    with pytest.raises(SimulationError):
        timer.start(float("nan"))
    assert not timer.running
    assert sim.pending_events == 0


def test_timer_expiry_time(sim):
    timer = Timer(sim, lambda: None)
    timer.start(4.0)
    sim.schedule(1.0, lambda: None)
    sim.run(until=1.0)
    assert timer.expiry_time == pytest.approx(4.0)


def test_timer_requires_callable(sim):
    with pytest.raises(SimulationError):
        Timer(sim, None)  # type: ignore[arg-type]


def test_timer_can_be_restarted_from_its_own_callback(sim):
    fired = []

    def on_expire():
        fired.append(sim.now)
        if len(fired) < 3:
            timer.start(1.0)

    timer = Timer(sim, on_expire)
    timer.start(1.0)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_periodic_timer_ticks_until_the_horizon(sim):
    ticks = []
    periodic = PeriodicTimer(sim, period=0.5, callback=lambda: ticks.append(sim.now))
    periodic.start(0.5)
    sim.run(until=2.25)
    assert ticks == [0.5, 1.0, 1.5, 2.0]
    assert sim.pending_events == 1  # the next tick stays armed


def test_periodic_timer_first_tick_after_the_start_delay(sim):
    ticks = []
    periodic = PeriodicTimer(sim, period=1.0, callback=lambda: ticks.append(sim.now))
    periodic.start(0.0)
    sim.run(until=2.5)
    assert ticks == [0.0, 1.0, 2.0]


def test_periodic_timer_rejects_nonpositive_period(sim):
    with pytest.raises(SimulationError):
        PeriodicTimer(sim, period=0.0, callback=lambda: None)
    with pytest.raises(SimulationError):
        PeriodicTimer(sim, period=float("nan"), callback=lambda: None)
