"""MAC layer: 802.11-style DCF with the paper's aggregation extensions.

The MAC follows the Hydra prototype described in Section 4 of the paper: the
IEEE 802.11 distributed coordination function with an RTS/CTS exchange,
extended with two transmit queues (broadcast and unicast), transmit-time
frame aggregation, per-subframe CRCs on receive, and classification of pure
TCP ACKs into the broadcast queue.
"""

from repro.mac.addresses import BROADCAST_MAC, MacAddress
from repro.mac.frames import (
    AckFrame,
    CtsFrame,
    MacSubframe,
    RtsFrame,
    ACK_FRAME_BYTES,
    CTS_FRAME_BYTES,
    MIN_SUBFRAME_BYTES,
    RTS_FRAME_BYTES,
    SUBFRAME_OVERHEAD_BYTES,
)
from repro.mac.queues import TransmitQueues
from repro.mac.stats import MacStatistics
from repro.mac.dcf import AggregatingMac

__all__ = [
    "MacAddress",
    "BROADCAST_MAC",
    "MacSubframe",
    "RtsFrame",
    "CtsFrame",
    "AckFrame",
    "SUBFRAME_OVERHEAD_BYTES",
    "MIN_SUBFRAME_BYTES",
    "RTS_FRAME_BYTES",
    "CTS_FRAME_BYTES",
    "ACK_FRAME_BYTES",
    "TransmitQueues",
    "MacStatistics",
    "AggregatingMac",
]
