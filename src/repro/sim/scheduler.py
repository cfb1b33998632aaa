"""Binary-heap event scheduler and the one object per scheduled event.

:meth:`Scheduler.push` returns an :class:`Event`, and that same object is
what the caller keeps to cancel it and what :meth:`Scheduler.pop_next` hands
back when it is due.  Its ``active`` flag is True from ``push`` until the
event is popped or cancelled.

The heap stores ``(time, priority, sequence, event)`` tuples, so heap
sifting compares in C (floats/ints) and never reaches the :class:`Event`:
``sequence`` comes from the scheduler's own counter and is unique within
it.  Ties at equal ``(time, priority)`` therefore fire in scheduling order
(FIFO), which keeps protocol state machines deterministic.

Cancellation is lazy — cancelled events stay in the heap and are discarded
when they surface — but bounded: restart-heavy workloads (TCP RTO backoff,
HELLO jitter, AODV ring timeouts) cancel far more events than they pop.  The
scheduler counts cancelled entries still buried in the heap and rebuilds the
heap without them once they are the majority (and above a floor that keeps
tiny heaps free of compaction overhead), bounding heap size at roughly twice
the live-event count.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SchedulingError


class Event:
    """A scheduled ``callback(*args)`` at simulated ``time``.

    ``__slots__`` keeps it small: the simulator allocates one per scheduled
    callback, hundreds of thousands per experiment.
    """

    __slots__ = ("time", "callback", "args", "active")

    def __init__(self, time: float, callback: Callable[..., Any],
                 args: Tuple[Any, ...]) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        #: True while queued; popping or cancelling the event clears it.
        self.active = True


class Scheduler:
    """Priority queue of pending simulation events."""

    __slots__ = ("_heap", "_pending", "_cancelled_in_heap", "_tiebreak")

    #: Compaction floor: never rebuild heaps with fewer buried cancellations.
    COMPACT_MIN_CANCELLED = 64
    #: Rebuild once cancelled entries make up at least half the heap.
    COMPACT_FRACTION = 0.5

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._pending = 0
        self._cancelled_in_heap = 0
        # Bound to the counter's C-level ``__next__``: it runs once per push.
        self._tiebreak = itertools.count().__next__

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
    ) -> Event:
        """Queue ``callback(*args)`` to run at simulated ``time``.

        ``priority`` breaks ties at equal times (lower runs first); equal
        priorities run in scheduling order.
        """
        if not callable(callback):
            raise SchedulingError(f"callback must be callable, got {callback!r}")
        time = float(time)
        event = Event(time, callback, tuple(args))
        heapq.heappush(self._heap, (time, int(priority), self._tiebreak(), event))
        self._pending += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a queued event; a popped or cancelled one is left alone."""
        if not event.active:
            return
        event.active = False
        self._pending -= 1
        self._cancelled_in_heap += 1
        if (self._cancelled_in_heap >= self.COMPACT_MIN_CANCELLED
                and self._cancelled_in_heap
                >= self.COMPACT_FRACTION * len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without the lazily-cancelled entries."""
        self._heap = [entry for entry in self._heap if entry[3].active]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0

    def pop_next(self, until: Optional[float] = None) -> Optional[Event]:
        """Remove and return the next live event.

        Returns ``None`` when the queue is empty *or* the next live event
        lies strictly beyond ``until`` (in which case it stays queued).
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap and not heap[0][3].active:
            heappop(heap)
            self._cancelled_in_heap -= 1
        if not heap or (until is not None and heap[0][0] > until):
            return None
        event = heappop(heap)[3]
        event.active = False
        self._pending -= 1
        return event
