"""Property and regression tests for the scheduler's ordering invariants.

A randomized (seeded) op-sequence test interleaves push/cancel/pop against a
sorted-list reference model, checking the ``(time, priority, sequence)``
contract after every step; explicit regression tests pin the stale-handle
bugs (cancelling a retired event used to drive the live-event count
negative).
"""

from __future__ import annotations

import random

import pytest

from repro.sim.scheduler import Scheduler
from repro.sim.simulator import Simulator
from repro.sim.timer import Timer


# ---------------------------------------------------------------------------
# Stale-handle regressions
# ---------------------------------------------------------------------------

def test_cancelled_timer_keeps_count_and_clock_consistent():
    # A Timer keeps the event schedule() returned and cancels it through
    # the scheduler.  A cancel that bypassed the scheduler's accounting used
    # to leave pending_events overcounted and run(until=...) unable to
    # advance.
    sim = Simulator(seed=7)
    timer = Timer(sim, lambda: None)
    timer.start(5.0)
    timer.cancel()
    assert sim.pending_events == 0
    assert sim.run(until=10.0) == pytest.approx(10.0)
    timer.cancel()  # idempotent, never double-decrements
    assert sim.pending_events == 0



# ---------------------------------------------------------------------------
# Randomized model-based property test
# ---------------------------------------------------------------------------

class _ReferenceModel:
    """Sorted list of (time, priority, push_index) mirroring live events."""

    def __init__(self) -> None:
        self.entries = []  # (time, priority, push_index, token)

    def push(self, time, priority, push_index, token):
        self.entries.append((time, priority, push_index, token))
        self.entries.sort(key=lambda e: e[:3])

    def remove(self, token):
        self.entries = [e for e in self.entries if e[3] is not token]

    def pop_expected(self):
        return self.entries.pop(0) if self.entries else None

    def __len__(self):
        return len(self.entries)


@pytest.mark.parametrize("seed", range(6))
def test_scheduler_matches_reference_model(seed):
    rng = random.Random(seed)
    sched = Scheduler()
    model = _ReferenceModel()
    live = []       # (event, token) for events the model believes are queued
    retired = []    # events already popped or cancelled
    push_index = 0

    for _ in range(400):
        op = rng.choices(["push", "pop", "cancel", "stale_cancel"],
                         weights=[40, 25, 15, 8])[0]
        if op == "push":
            # A coarse grid of times/priorities forces plenty of ties, which
            # is exactly where the (time, priority, sequence) contract bites.
            time = float(rng.randrange(10))
            priority = rng.choice((0, 10, 50))
            token = object()
            event = sched.push(time, lambda _: None, args=(token,), priority=priority)
            model.push(time, priority, push_index, token)
            live.append((event, token))
            push_index += 1
        elif op == "pop":
            event = sched.pop_next()
            expected = model.pop_expected()
            if expected is None:
                assert event is None
            else:
                exp_time, _, _, exp_token = expected
                assert event.time == exp_time
                # Priority and FIFO among ties: the popped event must be
                # *exactly* the one the model predicts, not merely an
                # equal-time sibling.
                assert event.args[0] is exp_token
                index = next(i for i, (_, token) in enumerate(live)
                             if token is exp_token)
                retired.append(live.pop(index)[0])
        elif op == "cancel" and live:
            index = rng.randrange(len(live))
            event, token = live.pop(index)
            sched.cancel(event)
            model.remove(token)
            retired.append(event)
        elif op == "stale_cancel" and retired:
            # Cancelling a fired/cancelled event must never change
            # the live count.
            before = len(sched)
            sched.cancel(rng.choice(retired))
            assert len(sched) == before

        assert len(sched) == len(model)
        assert len(sched) >= 0
        assert sched.empty == (len(model) == 0)

    # Drain: the full (time, priority, FIFO) order must match the model.
    while True:
        event = sched.pop_next()
        expected = model.pop_expected()
        if event is None:
            assert expected is None
            break
        assert event.time == expected[0]
        assert event.args[0] is expected[3]


# ---------------------------------------------------------------------------
# Heap compaction: cancelled events must not accumulate unboundedly
# ---------------------------------------------------------------------------

def test_restart_heavy_workload_keeps_heap_bounded():
    # A restarted timer = push + cancel of the previous expiration.  Before
    # compaction every cancelled event stayed buried until its (ever later)
    # time surfaced, so frequent restarts grew the heap without limit.
    sched = Scheduler()
    event = sched.push(1.0, lambda: None)
    for restart in range(2, 50_002):
        new_event = sched.push(float(restart), lambda: None)
        sched.cancel(event)
        event = new_event
    assert len(sched) == 1
    # Bound: live events plus at most the compaction threshold's worth of
    # cancelled stragglers (the fraction only bites above the floor).
    assert sched.heap_size <= 2 * Scheduler.COMPACT_MIN_CANCELLED + 2
    assert sched.cancelled_in_heap <= sched.heap_size


def test_many_timers_restarting_stays_bounded_and_pops_in_order():
    # Interleaved RTO/HELLO-style timers: 32 logical timers each restarted
    # hundreds of times, then everything drains in exact (time, priority,
    # FIFO) order.
    rng = random.Random(11)
    sched = Scheduler()
    model = _ReferenceModel()
    timers = {}
    push_index = 0
    for _ in range(8_000):
        slot = rng.randrange(32)
        if slot in timers:
            old_event, old_token = timers.pop(slot)
            sched.cancel(old_event)
            model.remove(old_token)
        time = float(rng.randrange(1, 10_000))
        token = object()
        timers[slot] = (sched.push(time, lambda _: None, args=(token,)), token)
        model.push(time, 0, push_index, token)
        push_index += 1
        assert len(sched) == len(model)
        assert sched.heap_size <= max(
            2 * len(model), 2 * Scheduler.COMPACT_MIN_CANCELLED + len(model))
    while True:
        event = sched.pop_next()
        expected = model.pop_expected()
        if event is None:
            assert expected is None
            break
        assert event.time == expected[0]
        assert event.args[0] is expected[3]


def test_compaction_preserves_handle_semantics():
    sched = Scheduler()
    keep = sched.push(5.0, lambda: None)
    victims = [sched.push(float(i + 10), lambda: None) for i in range(200)]
    for victim in victims:
        sched.cancel(victim)
    assert len(sched) == 1
    assert sched.heap_size < 200  # compaction ran
    for victim in victims:
        assert not victim.active
        sched.cancel(victim)  # still a no-op after compaction
    assert len(sched) == 1
    assert keep.active
    assert sched.pop_next() is keep
    assert sched.pop_next() is None
