"""MAC transmit queues.

The paper's MAC keeps two queues (Section 4.2.3): one for broadcasts and one
for unicasts.  Under the policies that classify them, the MAC places pure TCP
ACKs in the broadcast queue even though they carry unicast destination
addresses (:meth:`~repro.mac.dcf.AggregatingMac.enqueue`).  The aggregator
drains the broadcast queue first and then gathers unicast frames addressed to
the destination of the head of the unicast queue.
"""

from __future__ import annotations

from typing import List, Optional

from repro.mac.addresses import MacAddress
from repro.mac.frames import MacSubframe


class TransmitQueues:
    """The broadcast and unicast transmit queues of one MAC.

    Each queue holds at most ``capacity`` subframes; the default, 50, is the
    Hydra MAC's queue size, which every MAC uses.  The queues are plain
    lists: at that capacity removing the head moves at most 49 pointers, and
    an empty list is a thirteenth of an empty deque's size.  The queues
    count nothing: the MAC counts each drop once, in
    :attr:`~repro.mac.stats.MacStatistics.queue_drops` and its ``mac.drop``
    record, and each accepted subframe in its ``mac.enqueue`` record.
    """

    __slots__ = ("capacity", "_broadcast", "_unicast")

    def __init__(self, capacity: int = 50) -> None:
        self.capacity = capacity
        self._broadcast: List[MacSubframe] = []
        self._unicast: List[MacSubframe] = []

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------
    def enqueue_broadcast(self, subframe: MacSubframe) -> bool:
        """Append to the broadcast queue; returns False (and drops) when full."""
        if len(self._broadcast) >= self.capacity:
            return False
        subframe.transmit_in_broadcast_portion = True
        self._broadcast.append(subframe)
        return True

    def enqueue_unicast(self, subframe: MacSubframe) -> bool:
        """Append to the unicast queue; returns False (and drops) when full."""
        if len(self._unicast) >= self.capacity:
            return False
        subframe.transmit_in_broadcast_portion = False
        self._unicast.append(subframe)
        return True

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def broadcast_count(self) -> int:
        """Number of subframes waiting in the broadcast queue."""
        return len(self._broadcast)

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

    def broadcast_head(self) -> Optional[MacSubframe]:
        """The first broadcast subframe, left queued (None when empty)."""
        if not self._broadcast:
            return None
        return self._broadcast[0]

    # ------------------------------------------------------------------
    # Dequeue (used by the aggregator)
    # ------------------------------------------------------------------
    def pop_broadcast_head(self) -> Optional[MacSubframe]:
        """Remove and return the first broadcast subframe."""
        if not self._broadcast:
            return None
        return self._broadcast.pop(0)

    def take_unicast_for(self, destination: MacAddress, max_subframes: int,
                         fits) -> List[MacSubframe]:
        """Remove and return unicast subframes for ``destination``.

        Scans the queue in order, taking subframes whose destination matches
        and for which the callable ``fits(subframe)`` returns True, up to
        ``max_subframes``.  Non-matching subframes stay queued in order.
        """
        taken: List[MacSubframe] = []
        remaining: List[MacSubframe] = []
        unicast = self._unicast
        for index, subframe in enumerate(unicast):
            if len(taken) >= max_subframes:
                # Limit reached: nothing further can be taken, so splice the
                # rest over wholesale instead of testing item by item.
                remaining += unicast[index:]
                break
            if subframe.dst == destination and fits(subframe):
                taken.append(subframe)
            else:
                remaining.append(subframe)
        self._unicast = remaining
        return taken
