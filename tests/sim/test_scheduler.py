"""Unit tests for the event scheduler."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchedulingError
from repro.sim.scheduler import Scheduler


def _fire_all(sched):
    """Pop and run every live event, as the simulator's run loop does."""
    while (event := sched.pop_next()) is not None:
        event.callback(*event.args)


def test_push_and_pop_in_time_order():
    sched = Scheduler()
    fired = []
    sched.push(2.0, fired.append, ("b",))
    sched.push(1.0, fired.append, ("a",))
    sched.push(3.0, fired.append, ("c",))
    times = []
    while not sched.empty:
        event = sched.pop_next()
        times.append(event.time)
        event.callback(*event.args)
    assert times == [1.0, 2.0, 3.0]
    assert fired == ["a", "b", "c"]


def test_push_returns_the_event_that_pop_next_yields():
    # One object per scheduled event: the caller's handle is the queued
    # record, and ``active`` clears on pop as well as on cancel.
    sched = Scheduler()
    log = []
    popped = sched.push(1.0, log.append, ("x",))
    cancelled = sched.push(2.0, log.append, ("y",))
    assert popped.active and cancelled.active
    sched.cancel(cancelled)
    assert not cancelled.active
    assert popped.active
    assert sched.pop_next() is popped
    assert not popped.active
    assert (popped.time, popped.callback, popped.args) == (1.0, log.append, ("x",))
    assert sched.pop_next() is None


def test_equal_times_fire_in_scheduling_order():
    sched = Scheduler()
    order = []
    for label in range(5):
        sched.push(1.0, order.append, (label,))
    _fire_all(sched)
    assert order == [0, 1, 2, 3, 4]


def test_priority_breaks_ties_before_sequence():
    sched = Scheduler()
    order = []
    sched.push(1.0, order.append, ("low",), priority=10)
    sched.push(1.0, order.append, ("high",), priority=0)
    _fire_all(sched)
    assert order == ["high", "low"]


def test_cancel_removes_event_from_live_count():
    sched = Scheduler()
    event = sched.push(1.0, lambda: None)
    assert len(sched) == 1
    sched.cancel(event)
    assert len(sched) == 0
    assert sched.pop_next() is None


def test_cancelled_event_does_not_fire():
    sched = Scheduler()
    fired = []
    keep = sched.push(1.0, fired.append, ("keep",))
    drop = sched.push(1.0, fired.append, ("drop",))
    sched.cancel(drop)
    _fire_all(sched)
    assert fired == ["keep"]
    assert not keep.active and not drop.active


def test_cancel_is_idempotent():
    sched = Scheduler()
    event = sched.push(1.0, lambda: None)
    sched.cancel(event)
    sched.cancel(event)
    assert len(sched) == 0


def test_non_callable_callback_rejected():
    sched = Scheduler()
    with pytest.raises(SchedulingError):
        sched.push(1.0, "not callable")  # type: ignore[arg-type]


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
def test_pop_order_is_always_sorted(times):
    sched = Scheduler()
    for t in times:
        sched.push(t, lambda: None)
    popped = []
    while not sched.empty:
        popped.append(sched.pop_next().time)
    assert popped == sorted(times)
