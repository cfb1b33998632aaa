"""Transmit-side frame aggregation.

When the DCF acquires the floor, the MAC asks the :class:`Aggregator` to
assemble the next physical frame from its two transmit queues (Section 4.2.3
of the paper):

1. the broadcast queue is drained first (flooding frames and classified pure
   TCP ACKs), putting the broadcast subframes closest to the PHY training
   sequences where they are least exposed to channel aging;
2. then unicast subframes destined to the *same receiver* as the head of the
   unicast queue are gathered;
3. the total is bounded by the policy's maximum aggregation size.

The aggregator only builds fresh aggregates.  Retries never come back here:
the MAC keeps a failed exchange's build and resends it as it was after a
failed RTS, or without its broadcast portion
(:meth:`AggregateBuild.without_broadcast_portion`) once the data went out,
since broadcast subframes are sent unacknowledged and never retransmitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.core.policies import AggregationPolicy
from repro.errors import AggregationError
from repro.phy.frame import PhyFrame
from repro.phy.rates import PhyRate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mac.addresses import MacAddress
    from repro.mac.frames import MacSubframe
    from repro.mac.queues import TransmitQueues


@dataclass
class AggregateBuild:
    """The result of one aggregation pass: the contents of the next frame."""

    broadcast_subframes: List["MacSubframe"] = field(default_factory=list)
    unicast_subframes: List["MacSubframe"] = field(default_factory=list)
    destination: Optional["MacAddress"] = None

    @property
    def empty(self) -> bool:
        """True when there is nothing to transmit."""
        return not self.broadcast_subframes and not self.unicast_subframes

    @property
    def has_unicast(self) -> bool:
        """True when the frame needs a link-level ACK."""
        return bool(self.unicast_subframes)

    @property
    def broadcast_bytes(self) -> int:
        """Size of the broadcast portion."""
        return sum(sf.size_bytes for sf in self.broadcast_subframes)

    @property
    def unicast_bytes(self) -> int:
        """Size of the unicast portion."""
        return sum(sf.size_bytes for sf in self.unicast_subframes)

    @property
    def total_bytes(self) -> int:
        """Total MAC bytes in the aggregate."""
        return self.broadcast_bytes + self.unicast_bytes

    @property
    def subframe_count(self) -> int:
        """Number of subframes in the aggregate."""
        return len(self.broadcast_subframes) + len(self.unicast_subframes)

    def to_phy_frame(self, unicast_rate: PhyRate,
                     broadcast_rate: Optional[PhyRate] = None) -> PhyFrame:
        """Convert the build into a :class:`~repro.phy.frame.PhyFrame`."""
        if self.empty:
            raise AggregationError("cannot build a PHY frame from an empty aggregate")
        return PhyFrame.data(
            broadcast_subframes=self.broadcast_subframes,
            unicast_subframes=self.unicast_subframes,
            unicast_rate=unicast_rate,
            broadcast_rate=broadcast_rate,
        )

    def without_broadcast_portion(self) -> "AggregateBuild":
        """Copy of the build keeping only the unicast portion (retransmissions)."""
        return AggregateBuild(
            broadcast_subframes=[],
            unicast_subframes=list(self.unicast_subframes),
            destination=self.destination,
        )


class Aggregator:
    """Builds aggregated frames according to an :class:`AggregationPolicy`."""

    def __init__(self, policy: AggregationPolicy) -> None:
        self.policy = policy

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def build(self, queues: "TransmitQueues") -> AggregateBuild:
        """Assemble the next aggregate, removing the chosen subframes from ``queues``."""
        policy = self.policy
        build = AggregateBuild()
        budget = policy.max_aggregate_bytes

        # --- broadcast portion first (Section 4.2.3) -------------------
        if queues.broadcast_count:
            self._fill_broadcast(build, queues)
            budget = policy.max_aggregate_bytes - build.total_bytes
            if not policy.mixes_broadcast_and_unicast:
                # NA/UA: broadcast traffic travels alone.
                return build

        # --- unicast portion -------------------------------------------
        destination = queues.head_unicast_destination()
        if destination is not None:
            max_subframes = policy.max_unicast_subframes
            taken_bytes = 0

            def fits(subframe: "MacSubframe", _build=build) -> bool:
                nonlocal taken_bytes
                # A frame cannot be fragmented, so an otherwise-empty aggregate
                # always accepts its first subframe even if that subframe alone
                # exceeds the budget.
                if (not _build.unicast_subframes and not _build.broadcast_subframes
                        and taken_bytes == 0):
                    taken_bytes += subframe.size_bytes
                    return True
                if taken_bytes + subframe.size_bytes <= budget:
                    taken_bytes += subframe.size_bytes
                    return True
                return False

            build.unicast_subframes = queues.take_unicast_for(destination, max_subframes, fits)
            build.destination = destination if build.unicast_subframes else None

        return build

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _fill_broadcast(self, build: AggregateBuild, queues: "TransmitQueues") -> None:
        """Move broadcast subframes from the queue head into ``build``.

        Stops at the policy's subframe limit, or at the first subframe that
        would take the aggregate past its byte budget; an otherwise-empty
        aggregate always takes its first subframe.
        """
        limit = self.policy.max_broadcast_subframes
        room = self.policy.max_aggregate_bytes - build.total_bytes
        taken = build.broadcast_subframes
        while len(taken) < limit:
            head = queues.broadcast_head()
            if head is None:
                break
            if (taken or build.unicast_subframes) and head.size_bytes > room:
                break
            taken.append(queues.pop_broadcast_head())
            room -= head.size_bytes
