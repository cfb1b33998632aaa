"""Receive-side processing of aggregated frames.

Section 4.2.2 of the paper: the receiving MAC first processes the broadcast
subframes — each one that passes its CRC is handed to the next layer
immediately, so broadcast subframes do not suffer from being aggregated with
unicast traffic — and then the unicast subframes, which are accepted
*all-or-nothing*: if every CRC passes and the destination matches, the whole
unicast portion goes up and a single link-level ACK is returned; otherwise
everything is discarded and no ACK is sent.  This is the only acceptance
rule: a block ACK reporting single subframes is Section 7's future work and
is not modelled.

Section 3.3: TCP ACKs ride in the broadcast portion but keep unicast MAC
addresses.  A node that overhears such a subframe and is not the addressed
next hop must drop it at the MAC — passing it up would make IP forward a
duplicate ACK along the path.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.phy.frame import ReceptionResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mac.addresses import MacAddress
    from repro.mac.frames import MacSubframe


#: Sequence numbers remembered per sender; older ones are forgotten first.
DUPLICATE_CACHE_SIZE = 128


class DuplicateDetector:
    """Per-sender cache of recently seen MAC sequence numbers.

    Link-level retransmissions can deliver the same unicast subframe twice
    (the ACK, not the data, may have been lost); the detector filters the
    second copy before it reaches the network layer.  The MAC counts what
    it filters (:attr:`~repro.mac.stats.MacStatistics.duplicates_filtered`).
    """

    __slots__ = ("_seen",)

    def __init__(self) -> None:
        self._seen: Dict["MacAddress", "OrderedDict[int, None]"] = {}

    def is_duplicate(self, src: "MacAddress", sequence: int) -> bool:
        """Record ``(src, sequence)`` and report whether it was already seen."""
        cache = self._seen.setdefault(src, OrderedDict())
        if sequence in cache:
            return True
        cache[sequence] = None
        while len(cache) > DUPLICATE_CACHE_SIZE:
            cache.popitem(last=False)
        return False


@dataclass(slots=True)
class DeaggregationResult:
    """What the MAC should do with a received aggregated frame."""

    #: Subframes to hand to the network layer (broadcast portion, CRC-passed,
    #: addressed to us or to the broadcast address).
    broadcast_deliveries: List["MacSubframe"] = field(default_factory=list)
    #: Unicast subframes to hand up (all-or-nothing; empty if any CRC failed
    #: or the portion is not addressed to us).
    unicast_deliveries: List["MacSubframe"] = field(default_factory=list)
    #: True when a link-level ACK must be sent back to the transmitter.
    send_ack: bool = False
    #: MAC address to send the ACK to (source of the unicast portion).
    ack_destination: Optional["MacAddress"] = None
    #: Overheard broadcast-portion subframes with unicast addresses that were
    #: dropped at the MAC (classified TCP ACKs passing by).
    overheard_dropped: int = 0
    #: Duplicate unicast subframes filtered by the duplicate detector.
    duplicates_filtered: int = 0
    #: NAV reservation to honour when the unicast portion is addressed to
    #: someone else (taken from the first unicast subframe's duration field).
    nav_duration: float = 0.0


def process_received_aggregate(result: ReceptionResult, my_address: "MacAddress",
                               duplicates: Optional[DuplicateDetector] = None
                               ) -> DeaggregationResult:
    """Apply the paper's receive rules to a decoded aggregate."""
    output = DeaggregationResult()
    frame = result.frame

    # ------------------------------------------------------------------
    # Broadcast portion: per-subframe CRC, address filter, immediate pass-up.
    # ------------------------------------------------------------------
    for subframe, crc_ok in zip(frame.broadcast_subframes, result.broadcast_ok):
        if not crc_ok:
            continue
        if subframe.dst.is_broadcast or subframe.dst == my_address:
            output.broadcast_deliveries.append(subframe)
        else:
            output.overheard_dropped += 1

    # ------------------------------------------------------------------
    # Unicast portion: all-or-nothing under a single link-level ACK.
    # ------------------------------------------------------------------
    unicast = frame.unicast_subframes
    if not unicast:
        return output

    if unicast[0].dst != my_address:
        output.nav_duration = unicast[0].duration
        return output

    if not result.all_unicast_ok:
        # One bad CRC discards the whole unicast portion and suppresses the ACK.
        return output

    output.send_ack = True
    output.ack_destination = unicast[0].src
    for subframe in unicast:
        if duplicates is not None and duplicates.is_duplicate(subframe.src, subframe.sequence):
            output.duplicates_filtered += 1
            continue
        output.unicast_deliveries.append(subframe)
    return output
