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

_heappush = heapq.heappush
_heappop = heapq.heappop


class Event:
    """A scheduled ``callback(*args)`` at simulated ``time``.

    ``__slots__`` keeps it small: the simulator allocates one per scheduled
    callback, hundreds of thousands per experiment.  Only
    :meth:`Scheduler.push` makes one, and it fills the four slots itself
    rather than through an ``__init__`` frame.  ``active`` is True while
    the event is queued; popping or cancelling it clears the flag.
    """

    __slots__ = ("time", "callback", "args", "active")


_new_event = object.__new__


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
        # Normalise only what is not already a float, tuple and int: the
        # conversions return their argument unchanged for those anyway.
        if type(time) is not float:
            time = float(time)
        if type(args) is not tuple:
            args = tuple(args)
        if type(priority) is not int:
            priority = int(priority)
        event = _new_event(Event)
        event.time = time
        event.callback = callback
        event.args = args
        event.active = True
        _heappush(self._heap, (time, priority, self._tiebreak(), event))
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
        while heap:
            entry = _heappop(heap)
            event = entry[3]
            if not event.active:
                self._cancelled_in_heap -= 1
                continue
            if until is not None and entry[0] > until:
                # Keys are unique, so putting the entry back restores the
                # same pop order.
                _heappush(heap, entry)
                return None
            event.active = False
            self._pending -= 1
            return event
        return None
