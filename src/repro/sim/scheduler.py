"""Binary-heap event scheduler.

The heap stores ``(time, priority, sequence, event)`` tuples, so heap
sifting compares in C (floats/ints) and never calls a Python ``__lt__`` —
``sequence`` is globally unique, which guarantees the :class:`Event` in the
last slot is never reached by a comparison.

Cancellation is lazy — cancelled events stay in the heap and are discarded
when they surface — but no longer unbounded: restart-heavy workloads (TCP
RTO backoff, HELLO jitter, AODV ring timeouts) cancel far more events than
they pop, and before compaction the heap grew without limit.  The scheduler
counts cancelled entries still buried in the heap and rebuilds the heap
without them once they are the majority (and above a floor that keeps tiny
heaps free of compaction overhead), bounding heap size at roughly twice the
live-event count.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.sim.events import Event, EventHandle, next_sequence


class Scheduler:
    """Priority queue of pending simulation events."""

    __slots__ = ("_heap", "_pending", "_cancelled_in_heap")

    #: Compaction floor: never rebuild heaps with fewer buried cancellations.
    COMPACT_MIN_CANCELLED = 64
    #: Rebuild once cancelled entries make up at least half the heap.
    COMPACT_FRACTION = 0.5

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._pending = 0
        self._cancelled_in_heap = 0

    def __len__(self) -> int:
        """Number of *live* (not cancelled) events still queued."""
        return self._pending

    @property
    def empty(self) -> bool:
        """True when no live events remain."""
        return self._pending == 0

    @property
    def heap_size(self) -> int:
        """Total heap entries, live *and* lazily-cancelled (introspection)."""
        return len(self._heap)

    @property
    def cancelled_in_heap(self) -> int:
        """Cancelled events still buried in the heap (introspection)."""
        return self._cancelled_in_heap

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
    ) -> EventHandle:
        """Queue ``callback(*args)`` to run at simulated ``time``.

        ``priority`` breaks ties at equal times (lower runs first); equal
        priorities run in scheduling order.
        """
        if not callable(callback):
            raise SchedulingError(f"callback must be callable, got {callback!r}")
        time = float(time)
        priority = int(priority)
        sequence = next_sequence()
        event = Event(time, priority, sequence, callback, tuple(args))
        heapq.heappush(self._heap, (time, priority, sequence, event))
        self._pending += 1
        return EventHandle(event, self)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously scheduled event (no-op if already fired).

        ``EventHandle.cancel`` routes here too, so the live-event count is
        decremented exactly once per cancellation regardless of the path.
        """
        self._cancel_event(handle._event)

    def cancel_where(self, predicate: Callable[[Event], bool]) -> int:
        """Cancel every queued event for which ``predicate(event)`` holds.

        Returns how many events were cancelled.  This walks the whole heap,
        so it is meant for rare structural changes (a PHY leaving the
        medium), not for per-frame use: callers that cancel often keep the
        handle instead.  It iterates over a snapshot because a cancellation
        can trigger compaction, which replaces the heap.
        """
        cancelled = 0
        for entry in list(self._heap):
            event = entry[3]
            if not event.cancelled and predicate(event):
                self._cancel_event(event)
                cancelled += 1
        return cancelled

    def _cancel_event(self, event: Event) -> None:
        if event.dequeued or event.cancelled:
            return
        event.cancelled = True
        self._pending -= 1
        self._cancelled_in_heap += 1
        if (self._cancelled_in_heap >= self.COMPACT_MIN_CANCELLED
                and self._cancelled_in_heap
                >= self.COMPACT_FRACTION * len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without the lazily-cancelled entries."""
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` when empty."""
        self._discard_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` when empty."""
        self._discard_cancelled()
        if not self._heap:
            return None
        event = heapq.heappop(self._heap)[3]
        event.dequeued = True
        self._pending -= 1
        return event

    def pop_next(self, until: Optional[float] = None) -> Optional[Event]:
        """Fused peek-and-pop for the run loop.

        Returns the next live event, or ``None`` when the queue is empty *or*
        the next live event lies strictly beyond ``until`` (in which case it
        stays queued).
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap and heap[0][3].cancelled:
            heappop(heap)
            self._cancelled_in_heap -= 1
        if not heap or (until is not None and heap[0][0] > until):
            return None
        event = heappop(heap)[3]
        event.dequeued = True
        self._pending -= 1
        return event

    def clear(self) -> None:
        """Drop every pending event.

        Each dropped event is marked cancelled so that handles issued for it
        go inactive; cancelling such a handle afterwards is a no-op instead of
        driving the live-event count negative.
        """
        for entry in self._heap:
            entry[3].cancelled = True
        self._heap.clear()
        self._pending = 0
        self._cancelled_in_heap = 0

    def _discard_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._cancelled_in_heap -= 1
