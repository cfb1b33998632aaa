"""MAC transmit queues.

The paper's MAC keeps two queues (Section 4.2.3): one for broadcasts and one
for unicasts.  Pure TCP ACKs are placed in the broadcast queue by the
classifier even though they carry unicast destination addresses.  The
aggregator drains the broadcast queue first and then gathers unicast frames
addressed to the destination of the head of the unicast queue.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional

from repro.mac.addresses import MacAddress
from repro.mac.frames import MacSubframe


class TransmitQueues:
    """The broadcast and unicast transmit queues of one MAC."""

    __slots__ = ("capacity", "_broadcast", "_unicast", "drops_broadcast",
                 "drops_unicast", "enqueued_broadcast", "enqueued_unicast")

    def __init__(self, capacity: int = 50) -> None:
        self.capacity = capacity
        self._broadcast: Deque[MacSubframe] = deque()
        self._unicast: Deque[MacSubframe] = deque()
        self.drops_broadcast = 0
        self.drops_unicast = 0
        self.enqueued_broadcast = 0
        self.enqueued_unicast = 0

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------
    def enqueue_broadcast(self, subframe: MacSubframe) -> bool:
        """Append to the broadcast queue; returns False (and drops) when full."""
        if len(self._broadcast) >= self.capacity:
            self.drops_broadcast += 1
            return False
        subframe.transmit_in_broadcast_portion = True
        self._broadcast.append(subframe)
        self.enqueued_broadcast += 1
        return True

    def enqueue_unicast(self, subframe: MacSubframe) -> bool:
        """Append to the unicast queue; returns False (and drops) when full."""
        if len(self._unicast) >= self.capacity:
            self.drops_unicast += 1
            return False
        subframe.transmit_in_broadcast_portion = False
        self._unicast.append(subframe)
        self.enqueued_unicast += 1
        return True

    def requeue_unicast_front(self, subframes: Iterable[MacSubframe]) -> None:
        """Put unicast subframes back at the head of the queue (retransmission path)."""
        for subframe in reversed(list(subframes)):
            self._unicast.appendleft(subframe)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def broadcast_count(self) -> int:
        """Number of subframes waiting in the broadcast queue."""
        return len(self._broadcast)

    @property
    def unicast_count(self) -> int:
        """Number of subframes waiting in the unicast queue."""
        return len(self._unicast)

    @property
    def total_count(self) -> int:
        """Total queued subframes across both queues."""
        return len(self._broadcast) + len(self._unicast)

    @property
    def empty(self) -> bool:
        """True when both queues are empty."""
        return not self._broadcast and not self._unicast

    def head_unicast_destination(self) -> Optional[MacAddress]:
        """Destination of the first unicast subframe (None when empty)."""
        if not self._unicast:
            return None
        return self._unicast[0].dst

    def peek_broadcast(self) -> List[MacSubframe]:
        """Snapshot of the broadcast queue (front first)."""
        return list(self._broadcast)

    def peek_unicast(self) -> List[MacSubframe]:
        """Snapshot of the unicast queue (front first)."""
        return list(self._unicast)

    # ------------------------------------------------------------------
    # Dequeue (used by the aggregator)
    # ------------------------------------------------------------------
    def pop_broadcast_head(self) -> Optional[MacSubframe]:
        """Remove and return the first broadcast subframe."""
        if not self._broadcast:
            return None
        return self._broadcast.popleft()

    def take_unicast_for(self, destination: MacAddress, max_subframes: int,
                         fits) -> List[MacSubframe]:
        """Remove and return unicast subframes for ``destination``.

        Scans the queue in order, taking subframes whose destination matches
        and for which the callable ``fits(subframe)`` returns True, up to
        ``max_subframes``.  Non-matching subframes stay queued in order.
        """
        taken: List[MacSubframe] = []
        remaining: Deque[MacSubframe] = deque()
        unicast = self._unicast
        while unicast:
            if len(taken) >= max_subframes:
                # Limit reached: nothing further can be taken, so splice the
                # rest over wholesale instead of testing item by item.
                remaining.extend(unicast)
                break
            subframe = unicast.popleft()
            if subframe.dst == destination and fits(subframe):
                taken.append(subframe)
            else:
                remaining.append(subframe)
        self._unicast = remaining
        return taken

    def clear(self) -> None:
        """Drop everything in both queues."""
        self._broadcast.clear()
        self._unicast.clear()
