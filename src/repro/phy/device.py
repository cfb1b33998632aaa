"""The PHY device: transmit/receive state machine and carrier sensing.

One :class:`Phy` instance belongs to each node.  It talks *down* to the
shared :class:`~repro.channel.medium.WirelessChannel` and *up* to a
:class:`PhyListener` (the MAC).  It is deliberately half-duplex: a frame that
arrives while the node is transmitting is lost, and overlapping receptions
interfere with each other (SINR-based capture).

Every PHY runs at the Hydra operating point of Table 1 and Section 5: the
transmit power, the carrier-sense and reception thresholds and the capture
threshold are the module constants below, and airtime follows the
preamble and rates of :mod:`repro.phy.timing`.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, Dict, Optional, Protocol

from repro.errors import ConfigurationError, PhyError
from repro.phy.error_model import subframe_survives
from repro.phy.frame import FrameKind, PhyFrame, ReceptionResult
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.channel.medium import WirelessChannel
    from repro.mobility.models import MobilityModel

#: Thermal noise floor every receiver measures SINR against.
NOISE_FLOOR_DBM = -94.0
_NOISE_FLOOR_MW = 10.0 ** (NOISE_FLOOR_DBM / 10.0)

#: Transmit power; the paper uses 7.7 mW ~= 8.9 dBm.
TX_POWER_DBM = 8.9
#: Energy level above which the medium is reported busy to the MAC.
CARRIER_SENSE_THRESHOLD_DBM = -92.0
#: Minimum received power for a frame to be decodable at all.
RECEPTION_THRESHOLD_DBM = -90.0
#: A frame survives interference if it is this many dB above the sum of
#: interferers (simple capture model).
CAPTURE_THRESHOLD_DB = 10.0
#: Below both thresholds a frame cannot be sensed, decoded or counted: the
#: PHY ignores it entirely (see :meth:`Phy.begin_reception`), which is what
#: lets the channel cull such deliveries without changing a byte of any run.
DETECT_FLOOR_DBM = min(CARRIER_SENSE_THRESHOLD_DBM, RECEPTION_THRESHOLD_DBM)


class PhyListener(Protocol):
    """Interface the MAC implements to receive PHY notifications."""

    def on_carrier_busy(self) -> None:
        """The medium became busy (energy above the carrier-sense threshold)."""

    def on_carrier_idle(self) -> None:
        """The medium became idle."""

    def on_frame_received(self, result: ReceptionResult) -> None:
        """A frame finished reception and was at least partially decodable."""

    def on_transmit_complete(self, frame: PhyFrame) -> None:
        """A locally originated frame finished transmission."""


class PhyState(enum.Enum):
    """Coarse state of the PHY."""

    IDLE = "idle"
    TRANSMITTING = "transmitting"
    RECEIVING = "receiving"


class _ReceptionAttempt:
    """Book-keeping for one in-flight reception."""

    __slots__ = ("frame", "rx_power_dbm", "rx_power_mw", "interference_mw", "doomed")

    def __init__(self, frame: PhyFrame, rx_power_dbm: float, rx_power_mw: float,
                 doomed: bool) -> None:
        self.frame = frame
        self.rx_power_dbm = rx_power_dbm
        #: ``rx_power_dbm`` in mW, computed once: every overlapping
        #: reception adds it to its interference sum.
        self.rx_power_mw = rx_power_mw
        self.interference_mw = 0.0
        self.doomed = doomed


class Phy:
    """Half-duplex PHY with carrier sensing, capture and subframe decoding.

    Its position has one source, chosen when it is built: ``position``,
    or a ``mobility`` model bound to the ``mobility.<name>`` stream with
    ``position`` as origin and ``sim.now`` as start time.  The constructor
    registers it with ``channel`` for good, so it never leaves the medium
    and moves only as its model says (:meth:`position_at`).
    """

    __slots__ = ("sim", "channel", "channel_index", "_position",
                 "_mobility", "name", "_rng", "_listener",
                 "_transmitting", "_receptions", "_carrier_count",
                 "_carrier_busy_reported", "frames_sent", "frames_received",
                 "frames_collided", "tx_airtime")

    def __init__(
        self,
        sim: Simulator,
        channel: "WirelessChannel",
        position: tuple = (0.0, 0.0),
        name: str = "phy",
        mobility: Optional["MobilityModel"] = None,
    ) -> None:
        if not (math.isfinite(position[0]) and math.isfinite(position[1])):
            raise ConfigurationError(f"position must be finite, got {position!r}")
        if mobility is not None:
            # Before anything registers this PHY: binding refuses a model
            # that another PHY already holds.
            mobility.bind(sim.random.stream(f"mobility.{name}"), position,
                          start_time=sim.now)
        self.sim = sim
        self.channel = channel
        #: This PHY's identity on ``channel``, assigned by its ``register()``.
        self.channel_index: Optional[int] = None
        self._position = position
        self._mobility = mobility
        self.name = name
        self._rng = sim.random.stream(f"phy.{name}")
        self._listener: Optional[PhyListener] = None
        self._transmitting = False
        # Frame (hashed by identity) -> its in-flight reception.
        self._receptions: Dict[PhyFrame, _ReceptionAttempt] = {}
        self._carrier_count = 0
        self._carrier_busy_reported = False
        # statistics
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_collided = 0
        self.tx_airtime = 0.0
        sim.metrics.register_collector(self._collect_metrics)
        channel.register(self)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_listener(self, listener: PhyListener) -> None:
        """Attach the MAC (or any :class:`PhyListener`)."""
        self._listener = listener

    @property
    def mobility(self) -> Optional["MobilityModel"]:
        """The mobility model this PHY was built with, if any (fixed for life)."""
        return self._mobility

    def position_at(self, time: float) -> tuple:
        """Exact position at simulated ``time``.

        Without a mobility model this is the static position — the same
        tuple object at every time, so stationary scenarios are unchanged
        bit for bit.  With one, it is the model's analytic position.
        """
        mobility = self._mobility
        if mobility is None:
            return self._position
        return mobility.position_at(time)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def state(self) -> PhyState:
        """Current coarse PHY state."""
        if self._transmitting:
            return PhyState.TRANSMITTING
        if self._receptions:
            return PhyState.RECEIVING
        return PhyState.IDLE

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def send(self, frame: PhyFrame) -> float:
        """Transmit ``frame``; returns its airtime in seconds."""
        if self._transmitting:
            raise PhyError(f"{self.name}: send() while already transmitting")
        frame.sender = self
        duration = frame.airtime()
        self.channel.broadcast(self, frame, duration)
        self._transmitting = True
        self.frames_sent += 1
        self.tx_airtime += duration
        # Transmitting while receiving destroys the receptions in progress.
        for attempt in self._receptions.values():
            attempt.doomed = True
        sim = self.sim
        sim._scheduler.push(sim._now + duration, self._finish_transmission, (frame,),
                            Simulator.PRIORITY_PHY)
        tracer = sim.tracer
        if tracer.enabled:
            tracer.emit(self.name, "phy", "tx_start", kind=frame.kind.value,
                        bytes=frame.total_bytes, duration=duration, frame=frame)
        return duration

    def _finish_transmission(self, frame: PhyFrame) -> None:
        self._transmitting = False
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(self.name, "phy", "tx_end", kind=frame.kind.value)
        if self._listener is not None:
            self._listener.on_transmit_complete(frame)
        self._update_carrier()

    # ------------------------------------------------------------------
    # Receive path (driven by the channel)
    # ------------------------------------------------------------------
    def begin_reception(self, frame: PhyFrame, rx_power_dbm: float) -> None:
        """Called by the channel when a remote frame starts arriving."""
        if rx_power_dbm < DETECT_FLOOR_DBM:
            # Below the detect floor the frame is invisible: no carrier
            # energy, no reception attempt, no interference contribution, no
            # counters.  This is the PHY-side half of the conservative-cutoff
            # contract (docs/DETERMINISM.md): because a sub-floor arrival has
            # zero observable effect, the channel may skip scheduling it — in
            # every enumeration mode — without changing any byte of a run.
            return
        if rx_power_dbm >= CARRIER_SENSE_THRESHOLD_DBM:
            self._carrier_count += 1
            if not self._carrier_busy_reported:
                self._update_carrier()

        rx_power_mw = 10.0 ** (rx_power_dbm / 10.0)
        attempt = _ReceptionAttempt(
            frame, rx_power_dbm, rx_power_mw,
            not rx_power_dbm >= RECEPTION_THRESHOLD_DBM or self._transmitting)
        # Mutual interference with every reception already in progress.
        for other in self._receptions.values():
            other.interference_mw += rx_power_mw
            attempt.interference_mw += other.rx_power_mw
        self._receptions[frame] = attempt

    def end_reception(self, frame: PhyFrame) -> None:
        """Called by the channel when a remote frame stops arriving."""
        attempt = self._receptions.pop(frame, None)
        if attempt is None:  # pragma: no cover - defensive
            return
        if attempt.rx_power_dbm >= CARRIER_SENSE_THRESHOLD_DBM and self._carrier_count:
            self._carrier_count -= 1
        # Transmitting at the instant reception completes also kills it.
        if self._transmitting:
            attempt.doomed = True
        self._deliver(attempt)
        self._update_carrier()

    def _deliver(self, attempt: _ReceptionAttempt) -> None:
        frame = attempt.frame
        rx_power_dbm = attempt.rx_power_dbm
        interference_mw = attempt.interference_mw
        sinr_db = rx_power_dbm - 10.0 * math.log10(_NOISE_FLOOR_MW + interference_mw)
        collided = attempt.doomed or (
            interference_mw > 0.0
            and not rx_power_dbm - 10.0 * math.log10(interference_mw) >= CAPTURE_THRESHOLD_DB)

        if frame.kind is not FrameKind.DATA:
            any_ok = not collided and subframe_survives(
                self._rng, sinr_db, frame.unicast_rate, frame.control_bytes, 0.0)
            result = ReceptionResult(frame, sinr_db, collided, (), (), any_ok)
        elif collided:
            any_ok = False
            result = ReceptionResult(frame, sinr_db, True,
                                     [False] * len(frame.broadcast_subframes),
                                     [False] * len(frame.unicast_subframes))
        else:
            # One draw per subframe from the PHY's stream, broadcast portion
            # first, in subframe order.
            survives = subframe_survives
            rng = self._rng
            broadcast_offsets, unicast_offsets = frame.sample_offsets()
            rate = frame.broadcast_rate or frame.unicast_rate
            broadcast_ok = [survives(rng, sinr_db, rate, subframe.size_bytes, offset)
                            for subframe, offset
                            in zip(frame.broadcast_subframes, broadcast_offsets)]
            rate = frame.unicast_rate
            unicast_ok = [survives(rng, sinr_db, rate, subframe.size_bytes, offset)
                          for subframe, offset
                          in zip(frame.unicast_subframes, unicast_offsets)]
            any_ok = True in broadcast_ok or True in unicast_ok
            result = ReceptionResult(frame, sinr_db, False, broadcast_ok, unicast_ok)

        if collided:
            self.frames_collided += 1
        self.frames_received += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(self.name, "phy", "rx_end", kind=frame.kind.value,
                        snr=round(sinr_db, 1), collided=collided, result=result)
        if self._listener is not None and (any_ok or collided):
            self._listener.on_frame_received(result)

    def _collect_metrics(self, registry) -> None:
        """Snapshot-time collector: running PHY totals as per-node gauges."""
        registry.set_gauge("phy.frames_sent", self.frames_sent, node=self.name)
        registry.set_gauge("phy.frames_received", self.frames_received, node=self.name)
        registry.set_gauge("phy.frames_collided", self.frames_collided, node=self.name)
        registry.set_gauge("phy.tx_airtime_s", self.tx_airtime, node=self.name)

    # ------------------------------------------------------------------
    # Carrier sense notification
    # ------------------------------------------------------------------
    def _update_carrier(self) -> None:
        busy = self._transmitting or self._carrier_count > 0
        if busy and not self._carrier_busy_reported:
            self._carrier_busy_reported = True
            if self._listener is not None:
                self._listener.on_carrier_busy()
        elif not busy and self._carrier_busy_reported:
            self._carrier_busy_reported = False
            if self._listener is not None:
                self._listener.on_carrier_idle()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Phy {self.name} state={self.state.value}>"
