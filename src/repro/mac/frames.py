"""MAC frame formats and size accounting.

The MAC subframe format follows Figure 4 of the paper: frame control,
duration, three addresses, a 2-byte length field, the MPDU payload, an FCS
and PAD octets.  On the Hydra prototype the full link-layer encapsulation of
an MSS-sized (1357 B) TCP segment produces a 1464 B MAC frame and a pure TCP
ACK produces a 160 B MAC frame (Section 5); the constants below reproduce
those sizes exactly:

* ``SUBFRAME_OVERHEAD_BYTES = 67`` — MAC header (24 B), length field, FCS,
  LLC/SNAP encapsulation and alignment padding, measured end to end;
* ``MIN_SUBFRAME_BYTES = 160`` — small subframes (pure TCP ACKs are
  20 B TCP + 20 B IP + 67 B = 107 B) are padded up to the prototype's minimum
  subframe size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mac.addresses import MacAddress
from repro.net.packet import Packet

#: Link-layer encapsulation overhead added to every network packet.
SUBFRAME_OVERHEAD_BYTES = 67
#: Minimum size of a MAC subframe (smaller payloads are padded).
MIN_SUBFRAME_BYTES = 160
#: Control frame sizes (bytes), as in 802.11.
RTS_FRAME_BYTES = 20
CTS_FRAME_BYTES = 14
ACK_FRAME_BYTES = 14


@dataclass(slots=True)
class MacSubframe:
    """One MAC subframe inside an aggregated physical frame.

    ``transmit_in_broadcast_portion`` records the queue the subframe was
    assigned to: pure TCP ACKs keep their unicast destination address but are
    carried (unacknowledged) in the broadcast portion of the frame
    (Section 3.3).  ``sequence`` is numbered per transmitter, as in 802.11:
    each MAC counts its own subframes from 1.
    """

    src: MacAddress
    dst: MacAddress
    packet: Packet
    sequence: int = 0
    duration: float = 0.0
    transmit_in_broadcast_portion: bool = False
    retries: int = 0
    enqueued_at: float = 0.0
    #: On-air size (header + payload + FCS + padding), fixed at construction:
    #: the wrapped packet's size never changes.
    size_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.size_bytes = max(self.packet.size_bytes + SUBFRAME_OVERHEAD_BYTES,
                              MIN_SUBFRAME_BYTES)

    @property
    def overhead_bytes(self) -> int:
        """Bytes that are MAC encapsulation rather than network payload."""
        return self.size_bytes - self.packet.size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        queue = "bcast" if self.transmit_in_broadcast_portion else "ucast"
        return (f"<MacSubframe seq={self.sequence} {self.src}->{self.dst} "
                f"{self.size_bytes}B {queue}>")


@dataclass(slots=True)
class RtsFrame:
    """Request-to-send control frame."""

    src: MacAddress
    dst: MacAddress
    duration: float = 0.0

    @property
    def size_bytes(self) -> int:
        """Size on air, :data:`RTS_FRAME_BYTES`."""
        return RTS_FRAME_BYTES


@dataclass(slots=True)
class CtsFrame:
    """Clear-to-send control frame (addressed to the RTS originator)."""

    dst: MacAddress
    duration: float = 0.0

    @property
    def size_bytes(self) -> int:
        """Size on air, :data:`CTS_FRAME_BYTES`."""
        return CTS_FRAME_BYTES


@dataclass(slots=True)
class AckFrame:
    """Link-level acknowledgement for the whole unicast portion of an aggregate."""

    dst: MacAddress

    @property
    def size_bytes(self) -> int:
        """Size on air, :data:`ACK_FRAME_BYTES`."""
        return ACK_FRAME_BYTES


def subframe_for_packet(packet: Packet, src: MacAddress, dst: MacAddress,
                        broadcast_portion: bool = False, now: float = 0.0,
                        sequence: int = 0) -> MacSubframe:
    """Wrap a network packet into a MAC subframe numbered ``sequence``."""
    return MacSubframe(
        src=src,
        dst=dst,
        packet=packet,
        sequence=sequence,
        transmit_in_broadcast_portion=broadcast_portion or dst.is_broadcast,
        enqueued_at=now,
    )
