"""Physical-layer frame formats.

A :class:`PhyFrame` is what the MAC hands to the PHY for transmission.  For
data it follows the paper's aggregated format (Figures 1 and 2): a preamble
and PHY header carrying *rate/length* information for the broadcast portion
and for the unicast portion, followed by zero or more broadcast subframes and
zero or more unicast subframes.  RTS/CTS/ACK control frames are separate,
small, non-aggregated frames.

The PHY treats subframes as opaque objects; it only needs their
``size_bytes`` attribute (satisfied by :class:`repro.mac.frames.MacSubframe`
and the control frame classes).

A frame's layout is fixed once it is built: its kind, rates, subframes and
control frame never change afterwards.  What follows from the layout alone
is therefore worked out at most once per frame, however many receivers
ask: the control frame's size when the frame is built, and the airtime and
the subframe sample offsets on first use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import PhyError
from repro.phy.rates import PhyRate
from repro.phy.timing import control_airtime, frame_airtime, subframe_sample_offsets


class FrameKind(enum.Enum):
    """The kind of physical frame on the air."""

    DATA = "data"
    RTS = "rts"
    CTS = "cts"
    ACK = "ack"

    @property
    def is_control(self) -> bool:
        """True for RTS/CTS/ACK frames."""
        return self is not FrameKind.DATA


@dataclass(slots=True, eq=False)
class PhyFrame:
    """A frame as transmitted on the air.

    For :attr:`FrameKind.DATA` frames, ``broadcast_subframes`` are serialised
    first at ``broadcast_rate`` and ``unicast_subframes`` follow at
    ``unicast_rate``.  For control frames, ``control`` holds the single
    control frame object and ``unicast_rate`` is the rate it is sent at.

    A frame is one transmission, so frames compare and hash by identity
    (``eq=False``): a receiving PHY keys its in-flight receptions by the
    frame itself.
    """

    kind: FrameKind
    unicast_rate: PhyRate
    broadcast_rate: Optional[PhyRate] = None
    broadcast_subframes: Tuple[object, ...] = ()
    unicast_subframes: Tuple[object, ...] = ()
    control: Optional[object] = None
    sender: Optional[object] = None
    #: Size of the control frame in bytes (0 for data frames), read from
    #: ``control`` when the frame is built.
    control_bytes: int = field(default=0, init=False)
    #: Memoised ``airtime()`` — the sender, the MAC's reservations and its
    #: statistics all ask for it.
    _airtime: Optional[float] = field(default=None, repr=False)
    #: Memoised ``(broadcast_offsets, unicast_offsets)`` — every receiver
    #: of the frame recomputes identical offsets otherwise.
    _offsets_cache: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.control is not None:
            self.control_bytes = self.control.size_bytes

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def data(cls, broadcast_subframes: Sequence[object], unicast_subframes: Sequence[object],
             unicast_rate: PhyRate, broadcast_rate: Optional[PhyRate] = None) -> "PhyFrame":
        """Build an aggregated data frame (broadcast portion first)."""
        broadcast_subframes = tuple(broadcast_subframes)
        unicast_subframes = tuple(unicast_subframes)
        if not broadcast_subframes and not unicast_subframes:
            raise PhyError("a data frame must contain at least one subframe")
        if broadcast_subframes and broadcast_rate is None:
            broadcast_rate = unicast_rate
        return cls(
            kind=FrameKind.DATA,
            unicast_rate=unicast_rate,
            broadcast_rate=broadcast_rate,
            broadcast_subframes=broadcast_subframes,
            unicast_subframes=unicast_subframes,
        )

    @classmethod
    def control_frame(cls, kind: FrameKind, control: object, rate: PhyRate) -> "PhyFrame":
        """Build an RTS/CTS/ACK frame."""
        if kind is FrameKind.DATA:
            raise PhyError(f"{kind} is not a control frame kind")
        return cls(kind=kind, unicast_rate=rate, control=control)

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def broadcast_bytes(self) -> int:
        """Total size of the broadcast portion in bytes."""
        return sum(sf.size_bytes for sf in self.broadcast_subframes)

    @property
    def unicast_bytes(self) -> int:
        """Total size of the unicast portion in bytes."""
        return sum(sf.size_bytes for sf in self.unicast_subframes)

    @property
    def total_bytes(self) -> int:
        """Total MAC payload bytes carried by the frame."""
        return self.broadcast_bytes + self.unicast_bytes + self.control_bytes

    @property
    def subframe_count(self) -> int:
        """Number of MAC subframes (0 for control frames)."""
        return len(self.broadcast_subframes) + len(self.unicast_subframes)

    @property
    def is_broadcast_only(self) -> bool:
        """True when the frame has broadcast subframes but no unicast portion."""
        return bool(self.broadcast_subframes) and not self.unicast_subframes

    @property
    def has_unicast(self) -> bool:
        """True when the frame carries at least one unicast subframe."""
        return bool(self.unicast_subframes)

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def airtime(self) -> float:
        """Total on-air duration of the frame, including the preamble.

        Memoised like :meth:`sample_offsets`: it depends only on the
        frame's layout.
        """
        airtime = self._airtime
        if airtime is None:
            if self.kind is not FrameKind.DATA:
                airtime = control_airtime(self.control_bytes, self.unicast_rate)
            else:
                airtime = frame_airtime(
                    self.broadcast_bytes, self.broadcast_rate or self.unicast_rate,
                    self.unicast_bytes, self.unicast_rate)
            self._airtime = airtime
        return airtime

    def sample_offsets(self) -> Tuple[List[float], List[float]]:
        """Sample offsets (from the end of the preamble) at which subframes end.

        Returns ``(broadcast_offsets, unicast_offsets)``.  The broadcast
        portion is transmitted first (closer to the training sequences), so it
        is less exposed to channel aging — the reason the paper puts
        broadcasts ahead of unicasts (Section 4.2.3).

        The result is memoised: offsets depend only on the frame layout,
        which is immutable once the frame is on the air, yet every receiver
        needs them.
        """
        cached = self._offsets_cache
        if cached is not None:
            return cached
        broadcast_rate = self.broadcast_rate or self.unicast_rate
        broadcast_offsets = subframe_sample_offsets(
            [sf.size_bytes for sf in self.broadcast_subframes], broadcast_rate
        )
        start = broadcast_offsets[-1] if broadcast_offsets else 0.0
        unicast_offsets = subframe_sample_offsets(
            [sf.size_bytes for sf in self.unicast_subframes], self.unicast_rate, start
        )
        cached = self._offsets_cache = (broadcast_offsets, unicast_offsets)
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind is not FrameKind.DATA:
            return f"<PhyFrame {self.kind.value} {self.control_bytes}B @{self.unicast_rate.name}>"
        return (
            f"<PhyFrame data bcast={len(self.broadcast_subframes)}sf/{self.broadcast_bytes}B "
            f"ucast={len(self.unicast_subframes)}sf/{self.unicast_bytes}B @{self.unicast_rate.name}>"
        )


@dataclass(slots=True)
class ReceptionResult:
    """Outcome of decoding a received :class:`PhyFrame`.

    One boolean per subframe records whether its CRC passed: the PHY gives
    a data frame's result a list per portion, and a control frame's result
    keeps the shared empty tuples, since it has no subframes.  ``collided``
    marks frames that overlapped a stronger/comparable transmission or that
    arrived while the receiver itself was transmitting.
    """

    frame: PhyFrame
    snr_db: float
    collided: bool = False
    broadcast_ok: Sequence[bool] = ()
    unicast_ok: Sequence[bool] = ()
    control_ok: bool = False

    @property
    def all_unicast_ok(self) -> bool:
        """True when every unicast subframe passed its CRC."""
        return all(self.unicast_ok) if self.unicast_ok else False

    @property
    def any_ok(self) -> bool:
        """True when anything in the frame was decodable."""
        return self.control_ok or any(self.broadcast_ok) or any(self.unicast_ok)

    @property
    def delivered_broadcast(self) -> List[object]:
        """The broadcast subframes that passed their CRC."""
        return [sf for sf, ok in zip(self.frame.broadcast_subframes, self.broadcast_ok) if ok]
