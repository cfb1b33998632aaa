"""The PHY device: transmit/receive state machine and carrier sensing.

One :class:`Phy` instance belongs to each node.  It talks *down* to the
shared :class:`~repro.channel.medium.WirelessChannel` and *up* to a
:class:`PhyListener` (the MAC).  It is deliberately half-duplex: a frame that
arrives while the node is transmitting is lost, and overlapping receptions
interfere with each other (SINR-based capture).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Protocol

from repro.errors import PhyError
from repro.phy.error_model import ErrorModel, ErrorModelConfig
from repro.phy.frame import FrameKind, PhyFrame, ReceptionResult
from repro.phy.timing import PhyTimingConfig
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.channel.medium import WirelessChannel
    from repro.mobility.models import MobilityModel

#: Thermal noise floor every receiver measures SINR against.
NOISE_FLOOR_DBM = -94.0
_NOISE_FLOOR_MW = 10.0 ** (NOISE_FLOOR_DBM / 10.0)


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


@dataclass(slots=True)
class PhyConfig:
    """Static configuration of a PHY device."""

    timing: PhyTimingConfig = field(default_factory=PhyTimingConfig)
    error: ErrorModelConfig = field(default_factory=ErrorModelConfig)
    #: Transmit power; the paper uses 7.7 mW ~= 8.9 dBm.
    tx_power_dbm: float = 8.9
    #: Energy level above which the medium is reported busy to the MAC.
    carrier_sense_threshold_dbm: float = -92.0
    #: Minimum received power for a frame to be decodable at all.
    reception_threshold_dbm: float = -90.0
    #: A frame survives interference if it is this many dB above the sum of
    #: interferers (simple capture model).
    capture_threshold_db: float = 10.0

    @property
    def detect_floor_dbm(self) -> float:
        """Weakest received power with any observable effect on this PHY.

        Below both the carrier-sense and reception thresholds a frame cannot
        be sensed, decoded, or counted — the PHY ignores it entirely (see
        :meth:`Phy.begin_reception`), which is what lets the channel cull
        such deliveries before scheduling them without changing a single
        byte of any run.
        """
        return min(self.carrier_sense_threshold_dbm, self.reception_threshold_dbm)


@dataclass(slots=True)
class _ReceptionAttempt:
    """Book-keeping for one in-flight reception."""

    frame: PhyFrame
    rx_power_dbm: float
    interference_mw: float = 0.0
    doomed: bool = False

    def add_interference_dbm(self, power_dbm: float) -> None:
        self.interference_mw += 10.0 ** (power_dbm / 10.0)

    @property
    def interference_dbm(self) -> float:
        if self.interference_mw <= 0.0:
            return -math.inf
        return 10.0 * math.log10(self.interference_mw)


class Phy:
    """Half-duplex PHY with carrier sensing, capture and subframe decoding."""

    __slots__ = ("sim", "channel", "channel_index", "config", "_position",
                 "mobility", "name", "error_model", "_rng", "_listener",
                 "_transmitting", "_receptions", "_carrier_count",
                 "_carrier_busy_reported", "frames_sent", "frames_received",
                 "frames_collided", "tx_airtime")

    def __init__(
        self,
        sim: Simulator,
        channel: "WirelessChannel",
        config: Optional[PhyConfig] = None,
        position: tuple = (0.0, 0.0),
        name: str = "phy",
    ) -> None:
        self.sim = sim
        self.channel = channel
        #: This PHY's identity on ``channel``, assigned by its ``register()``.
        self.channel_index: Optional[int] = None
        self.config = config or PhyConfig()
        # Direct slot write: the position property's setter notifies the
        # channel's spatial index, which cannot know this PHY yet (register()
        # runs at the end of __init__).
        self._position = position
        self.mobility: Optional["MobilityModel"] = None
        self.name = name
        self.error_model = ErrorModel(self.config.error)
        self._rng = sim.random.stream(f"phy.{name}")
        self._listener: Optional[PhyListener] = None
        self._transmitting = False
        # id(frame) -> attempt; the attempt keeps its frame alive.
        self._receptions: Dict[int, _ReceptionAttempt] = {}
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
    def listener(self) -> Optional[PhyListener]:
        """The attached MAC, if any."""
        return self._listener

    def set_mobility(self, model: "MobilityModel", start: bool = True,
                     stop_time: Optional[float] = None) -> "MobilityModel":
        """Attach a mobility model (and start its position update events).

        ``stop_time`` bounds the periodic updates so a mobile run whose
        traffic has drained does not keep the event queue alive forever.
        """
        if self.mobility is not None:
            raise PhyError(f"{self.name}: a mobility model is already attached")
        self.mobility = model
        model.attach(self)
        # The spatial index revalidates mobile PHYs against position_at() on
        # every query; tell the channel this one just became mobile.
        self.channel.phy_mobility_changed(self)
        if start:
            model.start(stop_time=stop_time)
        return model

    @property
    def position(self) -> tuple:
        """Latest position snapshot; refreshed by mobility update events.

        Link budgets use :meth:`position_at` (exact) instead of this.
        Assigning a new position notifies the channel so its spatial index
        re-buckets the PHY immediately — a reassigned *static* position has
        no mobility model to revalidate against, so the setter is the only
        way the index learns about it.
        """
        return self._position

    @position.setter
    def position(self, value: tuple) -> None:
        self._position = value
        self.channel.phy_position_changed(self)

    def position_at(self, time: float) -> tuple:
        """Exact position at simulated ``time``.

        Without a mobility model this is the static ``position`` attribute —
        the same tuple object, so stationary scenarios are unchanged bit for
        bit.  With one, the model interpolates analytically between waypoints
        regardless of the update-event granularity.
        """
        if self.mobility is None:
            return self.position
        return self.mobility.position_at(time)

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

    @property
    def carrier_busy(self) -> bool:
        """True when the node is transmitting or senses energy on the medium."""
        return self._transmitting or self._carrier_count > 0

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def send(self, frame: PhyFrame) -> float:
        """Transmit ``frame``; returns its airtime in seconds.

        A send the channel refuses (this PHY is not registered with it)
        raises before any PHY state or counter changes.
        """
        if self._transmitting:
            raise PhyError(f"{self.name}: send() while already transmitting")
        frame.sender = self
        duration = frame.airtime(self.config.timing)
        self.channel.broadcast(self, frame, duration, self.config.tx_power_dbm)
        self._transmitting = True
        self.frames_sent += 1
        self.tx_airtime += duration
        # Transmitting while receiving destroys the receptions in progress.
        for attempt in self._receptions.values():
            attempt.doomed = True
        sim = self.sim
        sim._scheduler.push(sim.now + duration, self._finish_transmission, (frame,),
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
        config = self.config
        if (rx_power_dbm < config.carrier_sense_threshold_dbm
                and rx_power_dbm < config.reception_threshold_dbm):
            # Below the detect floor the frame is invisible: no carrier
            # energy, no reception attempt, no interference contribution, no
            # counters.  This is the PHY-side half of the conservative-cutoff
            # contract (docs/DETERMINISM.md): because a sub-floor arrival has
            # zero observable effect, the channel may skip scheduling it — in
            # every enumeration mode — without changing any byte of a run.
            return
        if rx_power_dbm >= self.config.carrier_sense_threshold_dbm:
            self._carrier_count += 1
            self._update_carrier()

        decodable = rx_power_dbm >= self.config.reception_threshold_dbm
        attempt = _ReceptionAttempt(frame=frame, rx_power_dbm=rx_power_dbm,
                                    doomed=not decodable or self._transmitting)
        # Mutual interference with every reception already in progress.
        for other in self._receptions.values():
            other.add_interference_dbm(rx_power_dbm)
            attempt.add_interference_dbm(other.rx_power_dbm)
        self._receptions[id(frame)] = attempt

    def end_reception(self, frame: PhyFrame) -> None:
        """Called by the channel when a remote frame stops arriving."""
        attempt = self._receptions.pop(id(frame), None)
        if attempt is None:  # pragma: no cover - defensive
            return
        if attempt.rx_power_dbm >= self.config.carrier_sense_threshold_dbm:
            self._carrier_count = max(0, self._carrier_count - 1)
        # Transmitting at the instant reception completes also kills it.
        if self._transmitting:
            attempt.doomed = True
        self._deliver(attempt)
        self._update_carrier()

    def abort_receptions(self) -> None:
        """Forget every reception in progress without delivering anything.

        The channel calls this when the PHY is unregistered mid-flight, after
        cancelling the PHY's pending begin/end-reception events in the
        scheduler's queue.  With those events gone the attempts (and the
        carrier energy they contributed) must be dropped here or the PHY
        would sense a busy medium forever.
        """
        self._receptions.clear()
        self._carrier_count = 0
        self._update_carrier()

    def _deliver(self, attempt: _ReceptionAttempt) -> None:
        frame = attempt.frame
        sinr_db = (attempt.rx_power_dbm
                   - 10.0 * math.log10(_NOISE_FLOOR_MW + attempt.interference_mw))
        captured = True
        if attempt.interference_mw > 0.0:
            captured = (attempt.rx_power_dbm - attempt.interference_dbm
                        >= self.config.capture_threshold_db)
        collided = attempt.doomed or not captured

        result = ReceptionResult(frame=frame, snr_db=sinr_db, collided=collided)
        timing = self.config.timing
        if frame.kind.is_control:
            result.control_ok = (not collided) and self.error_model.control_frame_survives(
                self._rng, sinr_db, frame.unicast_rate, frame.control_bytes)
        else:
            broadcast_offsets, unicast_offsets = frame.sample_offsets(timing)
            broadcast_rate = frame.broadcast_rate or frame.unicast_rate
            for subframe, offset in zip(frame.broadcast_subframes, broadcast_offsets):
                ok = (not collided) and self.error_model.subframe_survives(
                    self._rng, sinr_db, broadcast_rate, subframe.size_bytes, offset)
                result.broadcast_ok.append(ok)
            for subframe, offset in zip(frame.unicast_subframes, unicast_offsets):
                ok = (not collided) and self.error_model.subframe_survives(
                    self._rng, sinr_db, frame.unicast_rate, subframe.size_bytes, offset)
                result.unicast_ok.append(ok)

        if collided:
            self.frames_collided += 1
        self.frames_received += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(self.name, "phy", "rx_end", kind=frame.kind.value,
                        snr=round(sinr_db, 1), collided=collided, result=result)
        if self._listener is not None and result.any_ok or self._listener is not None and collided:
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
        busy = self.carrier_busy
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
