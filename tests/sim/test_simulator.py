"""Unit tests for the simulator run loop."""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0
    assert sim.pending_events == 0


def test_schedule_and_run_advances_clock(sim):
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.schedule(0.5, lambda: seen.append(sim.now))
    end = sim.run()
    assert seen == [0.5, 1.5]
    assert end == 1.5
    assert sim.now == 1.5


def test_schedule_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


# NaN fails every ``<`` test, so a ``delay < 0`` guard lets it through and the
# event then fires out of order with the clock set to NaN.

def test_schedule_nan_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)
    assert sim.pending_events == 0


def test_schedule_at_nan_time_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), lambda: None)
    assert sim.pending_events == 0


def test_run_until_nan_rejected_and_keeps_the_clock(sim):
    seen = []
    sim.schedule(1.0, lambda: seen.append(sim.now))
    with pytest.raises(SimulationError):
        sim.run(until=float("nan"))
    assert sim.now == 0.0
    sim.run()
    assert seen == [1.0]


def test_run_until_stops_before_later_events(sim):
    seen = []
    sim.schedule(1.0, lambda: seen.append("early"))
    sim.schedule(5.0, lambda: seen.append("late"))
    sim.run(until=2.0)
    assert seen == ["early"]
    assert sim.now == 2.0
    # The late event is still pending and fires on a subsequent run.
    sim.run()
    assert seen == ["early", "late"]


def test_event_at_the_horizon_runs(sim):
    seen = []
    sim.schedule(2.0, lambda: seen.append(sim.now))
    assert sim.run(until=2.0) == 2.0
    assert seen == [2.0]
    assert sim.pending_events == 0


def test_run_until_with_empty_queue_advances_to_horizon(sim):
    sim.run(until=3.0)
    assert sim.now == 3.0


def test_run_until_in_the_past_is_rejected_and_keeps_the_clock(sim):
    seen = []
    sim.schedule(10.0, lambda: seen.append(sim.now))
    sim.run(until=5.0)
    assert sim.now == 5.0
    # Rewinding to 3.0 would let an event scheduled 0.5 s later fire at
    # 3.5, before a time the clock already reached.
    with pytest.raises(SimulationError):
        sim.run(until=3.0)
    assert sim.now == 5.0
    sim.schedule(0.5, lambda: seen.append(sim.now))
    # A horizon equal to the clock is allowed and runs nothing.
    sim.run(until=5.0)
    assert seen == []
    sim.run()
    assert seen == [5.5, 10.0]
    # The same holds once the queue has drained.
    with pytest.raises(SimulationError):
        sim.run(until=1.0)
    assert sim.now == 10.0


def test_run_until_infinity_is_rejected_and_keeps_the_clock(sim):
    # An infinite horizon used to leave the clock at inf once the queue
    # drained, after which every finite schedule_at was "in the past".
    seen = []
    sim.schedule(1.0, lambda: seen.append(sim.now))
    with pytest.raises(SimulationError):
        sim.run(until=math.inf)
    assert sim.now == 0.0
    assert seen == []
    assert sim.run() == 1.0
    sim.schedule_at(2.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.0, 2.0]


def test_events_scheduled_during_run_are_executed(sim):
    seen = []

    def chain(depth):
        seen.append((sim.now, depth))
        if depth < 3:
            sim.schedule(1.0, chain, depth + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert [d for _, d in seen] == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_priority_orders_simultaneous_events(sim):
    seen = []
    sim.schedule(1.0, lambda: seen.append("app"), priority=Simulator.PRIORITY_APP)
    sim.schedule(1.0, lambda: seen.append("phy"), priority=Simulator.PRIORITY_PHY)
    sim.schedule(1.0, lambda: seen.append("mac"), priority=Simulator.PRIORITY_MAC)
    sim.run()
    assert seen == ["phy", "mac", "app"]


def test_events_processed_counter(sim):
    for _ in range(7):
        sim.schedule(0.1, lambda: None)
    sim.run()
    assert sim.events_processed == 7


def test_raising_event_ends_the_run_and_keeps_the_rest_pending(sim):
    seen = []

    def fail():
        raise RuntimeError("callback failed")

    sim.schedule(1.0, fail)
    sim.schedule(2.0, lambda: seen.append(sim.now))
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim.now == 1.0
    assert sim.pending_events == 1
    sim.run()  # the loop was left, not left running
    assert seen == [2.0]


def test_nested_run_rejected(sim):
    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(0.1, reenter)
    sim.run()
