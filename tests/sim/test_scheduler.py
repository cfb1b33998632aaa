"""Unit tests for the event scheduler."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchedulingError
from repro.sim.scheduler import Scheduler


def test_push_and_pop_in_time_order():
    sched = Scheduler()
    fired = []
    sched.push(2.0, fired.append, ("b",))
    sched.push(1.0, fired.append, ("a",))
    sched.push(3.0, fired.append, ("c",))
    times = []
    while not sched.empty:
        event = sched.pop()
        times.append(event.time)
        event.fire()
    assert times == [1.0, 2.0, 3.0]
    assert fired == ["a", "b", "c"]


def test_equal_times_fire_in_scheduling_order():
    sched = Scheduler()
    order = []
    for label in range(5):
        sched.push(1.0, order.append, (label,))
    while not sched.empty:
        sched.pop().fire()
    assert order == [0, 1, 2, 3, 4]


def test_priority_breaks_ties_before_sequence():
    sched = Scheduler()
    order = []
    sched.push(1.0, order.append, ("low",), priority=10)
    sched.push(1.0, order.append, ("high",), priority=0)
    while not sched.empty:
        sched.pop().fire()
    assert order == ["high", "low"]


def test_cancel_removes_event_from_live_count():
    sched = Scheduler()
    handle = sched.push(1.0, lambda: None)
    assert len(sched) == 1
    sched.cancel(handle)
    assert len(sched) == 0
    assert sched.pop() is None


def test_cancelled_event_does_not_fire():
    sched = Scheduler()
    fired = []
    keep = sched.push(1.0, fired.append, ("keep",))
    drop = sched.push(1.0, fired.append, ("drop",))
    sched.cancel(drop)
    while True:
        event = sched.pop()
        if event is None:
            break
        event.fire()
    assert fired == ["keep"]
    assert keep.active is False or keep.fired is False  # handle survives


def test_cancel_is_idempotent():
    sched = Scheduler()
    handle = sched.push(1.0, lambda: None)
    sched.cancel(handle)
    sched.cancel(handle)
    assert len(sched) == 0


def test_peek_time_skips_cancelled_head():
    sched = Scheduler()
    first = sched.push(1.0, lambda: None)
    sched.push(2.0, lambda: None)
    sched.cancel(first)
    assert sched.peek_time() == 2.0


def test_non_callable_callback_rejected():
    sched = Scheduler()
    with pytest.raises(SchedulingError):
        sched.push(1.0, "not callable")  # type: ignore[arg-type]


def test_cancel_where_cancels_only_matching_events():
    sched = Scheduler()
    fired = []
    drop, keep = fired.append, fired.extend
    already = sched.push(1.0, drop, ("x",))
    for i in range(4):
        sched.push(float(i), drop, (i,))
        sched.push(float(i), keep, ((i,),))
    sched.cancel(already)
    # The already-cancelled event is neither matched again nor counted.
    assert sched.cancel_where(lambda event: event.callback == drop) == 4
    assert len(sched) == 4
    assert sched.cancel_where(lambda event: event.callback == drop) == 0
    while not sched.empty:
        sched.pop().fire()
    assert fired == [0, 1, 2, 3]


def test_cancel_where_survives_compaction_mid_walk():
    sched = Scheduler()
    kept = [sched.push(float(i), lambda: None) for i in range(10)]
    doomed = [sched.push(0.5 + i, int) for i in range(4 * Scheduler.COMPACT_MIN_CANCELLED)]
    heap_before = sched.heap_size
    assert sched.cancel_where(lambda event: event.callback is int) == len(doomed)
    # Compaction replaced the heap during the walk; every match is still
    # cancelled exactly once and the live count stays exact.
    assert sched.heap_size < heap_before
    assert len(sched) == len(kept)
    assert not any(handle.active for handle in doomed)
    assert all(handle.active for handle in kept)
    times = []
    while not sched.empty:
        times.append(sched.pop().time)
    assert times == [float(i) for i in range(10)]


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
def test_pop_order_is_always_sorted(times):
    sched = Scheduler()
    for t in times:
        sched.push(t, lambda: None)
    popped = []
    while not sched.empty:
        popped.append(sched.pop().time)
    assert popped == sorted(times)
