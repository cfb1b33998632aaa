"""The aggregating DCF MAC.

This is the Hydra MAC of Section 4 of the paper: IEEE 802.11 DCF with an
RTS/CTS exchange, extended with

* two transmit queues (broadcast and unicast) and a classifier that places
  pure TCP ACKs in the broadcast queue,
* transmit-time aggregation (the frame is assembled when the DCF acquires the
  floor),
* receive-side per-subframe CRC processing with all-or-nothing acceptance of
  the unicast portion and a single link-level ACK, and
* address filtering of overheard broadcast-portion subframes that carry
  unicast addresses (classified TCP ACKs).

It runs one exchange: an aggregate with a unicast portion is always preceded
by RTS/CTS and answered by one ACK, and a broadcast-only aggregate goes out
alone, unacknowledged.  A failed exchange is retried through one path: the
whole aggregate again after a failed RTS, its unicast portion alone after a
missing ACK.

The implementation is event driven: the PHY reports carrier busy/idle
transitions, frame receptions and transmit completions; the MAC reacts and
keeps explicit state (idle / contending / waiting for CTS / waiting for ACK).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.aggregator import AggregateBuild, Aggregator
from repro.core.classifier import TcpAckClassifier
from repro.core.deaggregation import DuplicateDetector, process_received_aggregate
from repro.core.policies import AggregationPolicy, broadcast_aggregation
from repro.mac.addresses import MacAddress
from repro.mac.backoff import BackoffController
from repro.mac.frames import (
    ACK_FRAME_BYTES,
    CTS_FRAME_BYTES,
    AckFrame,
    CtsFrame,
    MacSubframe,
    RtsFrame,
    subframe_for_packet,
)
from repro.mac.nav import NetworkAllocationVector
from repro.mac.queues import TransmitQueues
from repro.mac.stats import MacStatistics
from repro.mac.timing import DIFS, RETRY_LIMIT, SIFS, SLOT_TIME, TIMEOUT_GUARD
from repro.net.packet import Packet
from repro.phy.device import Phy
from repro.phy.frame import FrameKind, PhyFrame, ReceptionResult
from repro.phy.rates import HYDRA_BASE_RATE, PhyRate
from repro.phy.timing import control_airtime
from repro.sim.simulator import Simulator
from repro.sim.timer import Timer

#: Callback signature for packets delivered to the network layer:
#: ``callback(packet, source_mac)``.
ReceiveCallback = Callable[[Packet, MacAddress], None]

#: Airtimes of the CTS and ACK control frames, which always go out at
#: :data:`~repro.phy.rates.HYDRA_BASE_RATE`.
CTS_AIRTIME = control_airtime(CTS_FRAME_BYTES, HYDRA_BASE_RATE)
ACK_AIRTIME = control_airtime(ACK_FRAME_BYTES, HYDRA_BASE_RATE)
#: How long a sender waits for each SIFS-separated response: SIFS, the
#: response's airtime and :data:`~repro.mac.timing.TIMEOUT_GUARD`.
CTS_TIMEOUT = SIFS + CTS_AIRTIME + TIMEOUT_GUARD
ACK_TIMEOUT = SIFS + ACK_AIRTIME + TIMEOUT_GUARD


class MacState(enum.Enum):
    """Coarse state of the DCF state machine."""

    IDLE = "idle"
    CONTEND = "contend"
    WAIT_CTS = "wait_cts"
    WAIT_ACK = "wait_ack"


@dataclass(slots=True)
class MacConfig:
    """Static configuration of one MAC instance.

    Control frames (RTS/CTS/ACK) always go out at
    :data:`~repro.phy.rates.HYDRA_BASE_RATE`, the MAC always follows the
    constants of :mod:`repro.mac.timing`, and its queues hold
    :class:`~repro.mac.queues.TransmitQueues`' default capacity.
    """

    address: MacAddress
    #: Pinned rate of the unicast portion (the paper uses no rate adaptation).
    unicast_rate: PhyRate
    #: Rate for the broadcast portion; ``None`` means "same as unicast"
    #: (Figure 10 pins it).
    broadcast_rate: Optional[PhyRate] = None


class AggregatingMac:
    """802.11 DCF MAC with the paper's aggregation extensions."""

    __slots__ = ("sim", "phy", "config", "policy", "name", "address",
                 "queues", "classifier", "aggregator",
                 "duplicates", "stats", "_sequence",
                 "backoff", "nav", "state", "_current", "_data_frame",
                 "_pending_retry",
                 "_retry_count", "_flush_forced", "_drawn_slots",
                 "_backoff_resumed_at", "_access_timer", "_response_timer",
                 "_flush_timer", "_receive_callback")

    def __init__(
        self,
        sim: Simulator,
        phy: Phy,
        config: MacConfig,
        policy: Optional[AggregationPolicy] = None,
        name: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.phy = phy
        self.config = config
        self.policy = policy or broadcast_aggregation()
        self.name = name or f"mac-{config.address}"
        self.address = config.address

        self.queues = TransmitQueues()
        self.classifier = TcpAckClassifier(enabled=self.policy.classify_tcp_acks_as_broadcast)
        self.aggregator = Aggregator(self.policy)
        self.duplicates = DuplicateDetector()
        self.stats = MacStatistics(name=self.name)
        # Sequence number of this MAC's latest subframe (the first is 1).
        self._sequence = 0

        rng = sim.random.stream(f"mac.{self.name}")
        self.backoff = BackoffController(rng)
        self.nav = NetworkAllocationVector(sim, on_expire=self._resume_backoff)

        self.state = MacState.IDLE
        self._current: Optional[AggregateBuild] = None
        # The DATA frame of the current attempt, built when the attempt
        # begins: _send_rts sizes the RTS reservation with it and
        # _send_data_frame sends it and lets it go.
        self._data_frame: Optional[PhyFrame] = None
        self._pending_retry: Optional[AggregateBuild] = None
        self._retry_count = 0
        self._flush_forced = False
        self._drawn_slots = 0
        # Time backoff counting last (re)started; only meaningful while the
        # access timer runs (_pause_backoff checks that), but initialised here
        # so the attribute always exists under __slots__.
        self._backoff_resumed_at = 0.0

        self._access_timer = Timer(sim, self._on_backoff_complete,
                                   priority=Simulator.PRIORITY_MAC, name=f"{self.name}.access")
        self._response_timer = Timer(sim, self._on_response_timeout,
                                     priority=Simulator.PRIORITY_MAC, name=f"{self.name}.response")
        self._flush_timer = Timer(sim, self._on_flush_timeout,
                                  priority=Simulator.PRIORITY_MAC, name=f"{self.name}.flush")

        self._receive_callback: Optional[ReceiveCallback] = None
        sim.metrics.register_collector(self._collect_metrics)
        phy.attach_listener(self)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_receive_callback(self, callback: ReceiveCallback) -> None:
        """Register the network-layer handler for delivered packets."""
        self._receive_callback = callback

    # ------------------------------------------------------------------
    # Rates
    # ------------------------------------------------------------------
    @property
    def unicast_rate(self) -> PhyRate:
        """Rate used for the unicast portion of data frames."""
        return self.config.unicast_rate

    @property
    def broadcast_rate(self) -> PhyRate:
        """Rate used for the broadcast portion of data frames."""
        if self.config.broadcast_rate is not None:
            return self.config.broadcast_rate
        return self.config.unicast_rate

    # ------------------------------------------------------------------
    # Transmit path: enqueue
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, next_hop: MacAddress) -> bool:
        """Queue ``packet`` for transmission to ``next_hop``.

        Returns False when the relevant queue overflowed and the packet was
        dropped.
        """
        self._sequence += 1
        subframe = subframe_for_packet(packet, src=self.address, dst=next_hop,
                                       now=self.sim._now, sequence=self._sequence)
        use_broadcast_queue = self.classifier.belongs_in_broadcast_queue(
            packet, link_broadcast=next_hop.is_broadcast)
        if use_broadcast_queue:
            accepted = self.queues.enqueue_broadcast(subframe)
        else:
            accepted = self.queues.enqueue_unicast(subframe)
        tracer = self.sim.tracer
        if not accepted:
            self.stats.queue_drops += 1
            if tracer.enabled:
                tracer.emit(self.name, "mac", "drop", reason="queue_full",
                            queue="bcast" if use_broadcast_queue else "ucast",
                            packet=packet)
            return False
        if tracer.enabled:
            tracer.emit(self.name, "mac", "enqueue",
                        queue="bcast" if use_broadcast_queue else "ucast",
                        bytes=subframe.size_bytes, packet=packet)
        self._try_start_access()
        return True

    # ------------------------------------------------------------------
    # Transmit path: channel access
    # ------------------------------------------------------------------
    def _try_start_access(self) -> None:
        if self.state is not MacState.IDLE:
            return
        if self.queues.empty and self._pending_retry is None:
            return
        if not self._delay_condition_met():
            if not self._flush_timer.running:
                self._flush_timer.start(self.policy.delayed_flush_timeout)
            return
        self._flush_timer.cancel()
        self.state = MacState.CONTEND
        self._drawn_slots = self.backoff.draw()
        self._resume_backoff()

    def _delay_condition_met(self) -> bool:
        if self._pending_retry is not None:
            return True
        if self.policy.min_frames_before_transmit <= 1 or self._flush_forced:
            return True
        return self.queues.total_count >= self.policy.min_frames_before_transmit

    def _on_flush_timeout(self) -> None:
        self._flush_forced = True
        self._try_start_access()

    def _resume_backoff(self) -> None:
        if self.state is not MacState.CONTEND:
            return
        # Physical carrier (the PHY transmitting or sensing energy) or
        # virtual carrier (the NAV's reservation), read from their slots:
        # this runs on every idle upcall.
        phy = self.phy
        if phy._transmitting or phy._carrier_count > 0 or self.sim._now < self.nav.until:
            return
        if self._access_timer.running:
            return
        delay = DIFS + self.backoff.slots_remaining * SLOT_TIME
        self._backoff_resumed_at = self.sim._now
        self._access_timer.start(delay)

    def _pause_backoff(self) -> None:
        if self.state is not MacState.CONTEND or not self._access_timer.running:
            return
        idle = self.sim._now - self._backoff_resumed_at - DIFS
        self.backoff.consume(int(idle / SLOT_TIME) if idle > 0.0 else 0)
        self._access_timer.cancel()

    def _on_backoff_complete(self) -> None:
        if self.state is not MacState.CONTEND:  # pragma: no cover - defensive
            return
        self.stats.record_ifs(DIFS)
        self.stats.record_contention(self._drawn_slots * SLOT_TIME)
        self.backoff.slots_remaining = 0
        self._begin_exchange()

    # ------------------------------------------------------------------
    # Transmit path: the exchange
    # ------------------------------------------------------------------
    def _begin_exchange(self) -> None:
        if self._pending_retry is not None:
            self._current = self._pending_retry
            self._pending_retry = None
        else:
            self._current = self.aggregator.build(self.queues)
        if self._current is None or self._current.empty:
            self._current = None
            self.state = MacState.IDLE
            self._try_start_access()
            return

        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(self.name, "mac", "aggregate", build=self._current)

        self._data_frame = self._build_data_frame()
        if self._current.has_unicast:
            self._send_rts()
        else:
            self._send_data_frame()

    def _build_data_frame(self) -> PhyFrame:
        assert self._current is not None
        frame = self._current.to_phy_frame(self.unicast_rate, self.broadcast_rate)
        # Virtual carrier sensing: the duration field of the first unicast
        # subframe reserves the medium for the SIFS + ACK that follows.
        reservation = SIFS + ACK_AIRTIME if frame.has_unicast else 0.0
        for subframe in frame.broadcast_subframes + frame.unicast_subframes:
            subframe.duration = reservation
        return frame

    def _send_rts(self) -> None:
        assert self._current is not None
        reservation = 3 * SIFS + CTS_AIRTIME + self._data_frame.airtime() + ACK_AIRTIME
        rts = RtsFrame(src=self.address, dst=self._current.destination, duration=reservation)
        frame = PhyFrame.control_frame(FrameKind.RTS, rts, HYDRA_BASE_RATE)
        self._pause_backoff()
        airtime = self.phy.send(frame)
        self.stats.record_control_frame("rts", airtime)
        self.state = MacState.WAIT_CTS
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(self.name, "mac", "rts", dst=str(rts.dst))

    def _send_data_frame(self) -> None:
        if self._current is None:  # pragma: no cover - defensive
            return
        frame = self._data_frame
        # Sent frames are the PHY's and the receivers' to keep: a MAC that
        # held its last frame until its next exchange would keep every
        # idle node's last packets alive.
        self._data_frame = None
        self._pause_backoff()
        self.phy.send(frame)
        self.stats.record_data_frame(frame)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(self.name, "mac", "data_tx", subframes=frame.subframe_count,
                        bytes=frame.total_bytes, frame=frame)

    # ------------------------------------------------------------------
    # PHY listener interface
    # ------------------------------------------------------------------
    def on_transmit_complete(self, frame: PhyFrame) -> None:
        """PHY finished sending one of our frames."""
        if frame.kind is FrameKind.RTS:
            self._response_timer.start(CTS_TIMEOUT)
        elif frame.kind is FrameKind.DATA and frame.sender is self.phy:
            if self.state in (MacState.CONTEND, MacState.IDLE, MacState.WAIT_CTS):
                # Data sent by the exchange initiated by us.  The broadcast
                # portion is never acknowledged; custody of those packets ends
                # here (the air has them now).
                tracer = self.sim.tracer
                if tracer.enabled:
                    tracer.emit(self.name, "mac", "sent_unacked", frame=frame)
                if frame.has_unicast:
                    self.state = MacState.WAIT_ACK
                    self._response_timer.start(ACK_TIMEOUT)
                else:
                    self._complete_success(broadcast_only=True)
        elif frame.kind in (FrameKind.CTS, FrameKind.ACK):
            # We just answered someone else's exchange; resume our own work.
            self._resume_backoff()
        self._try_start_access()

    #: PHY reports energy on the medium: the backoff pauses.  The two
    #: carrier upcalls, one of each per sensed frame, are the backoff's own
    #: methods rather than wrappers calling them.
    on_carrier_busy = _pause_backoff
    #: PHY reports the medium went idle: the backoff resumes.
    on_carrier_idle = _resume_backoff

    def on_frame_received(self, result: ReceptionResult) -> None:
        """PHY delivered a decoded frame."""
        kind = result.frame.kind
        if kind is FrameKind.DATA:
            self._handle_data(result)
        elif kind is FrameKind.RTS:
            self._handle_rts(result)
        elif kind is FrameKind.CTS:
            self._handle_cts(result)
        else:
            self._handle_ack(result)

    # ------------------------------------------------------------------
    # Receive path: control frames
    # ------------------------------------------------------------------
    def _handle_rts(self, result: ReceptionResult) -> None:
        if not result.control_ok:
            return
        rts: RtsFrame = result.frame.control
        if rts.dst == self.address:
            remaining = max(0.0, rts.duration - SIFS)
            cts = CtsFrame(dst=rts.src, duration=remaining)
            self.sim.schedule(SIFS, self._send_control_response,
                              FrameKind.CTS, cts, priority=Simulator.PRIORITY_MAC)
        else:
            self.nav.update(rts.duration)
            self._pause_backoff()

    def _handle_cts(self, result: ReceptionResult) -> None:
        if not result.control_ok:
            return
        cts: CtsFrame = result.frame.control
        if cts.dst == self.address and self.state is MacState.WAIT_CTS:
            self._response_timer.cancel()
            self.stats.record_control_frame("cts_rx", result.frame.airtime())
            self.stats.record_ifs(SIFS)
            self.sim.schedule(SIFS, self._send_data_frame,
                              priority=Simulator.PRIORITY_MAC)
        elif cts.dst != self.address:
            self.nav.update(cts.duration)
            self._pause_backoff()

    def _handle_ack(self, result: ReceptionResult) -> None:
        if not result.control_ok:
            return
        control = result.frame.control
        if control.dst != self.address or self.state is not MacState.WAIT_ACK:
            return
        self._response_timer.cancel()
        self.stats.acks_received += 1
        self.stats.record_control_frame("ack_rx", result.frame.airtime())
        self.stats.record_ifs(SIFS)
        self._complete_success()

    def _send_control_response(self, kind: FrameKind, control_frame) -> None:
        if self.phy.state.value == "transmitting":  # pragma: no cover - defensive
            return
        self._pause_backoff()
        frame = PhyFrame.control_frame(kind, control_frame, HYDRA_BASE_RATE)
        airtime = self.phy.send(frame)
        self.stats.record_control_frame(kind.value, airtime)

    # ------------------------------------------------------------------
    # Receive path: data frames
    # ------------------------------------------------------------------
    def _handle_data(self, result: ReceptionResult) -> None:
        outcome = process_received_aggregate(result, self.address,
                                             duplicates=self.duplicates)

        self.stats.overheard_dropped += outcome.overheard_dropped
        self.stats.duplicates_filtered += outcome.duplicates_filtered
        if outcome.nav_duration > 0:
            self.nav.update(outcome.nav_duration)
            self._pause_backoff()

        for subframe in outcome.broadcast_deliveries:
            self._deliver_up(subframe)
        for subframe in outcome.unicast_deliveries:
            self._deliver_up(subframe)

        if outcome.send_ack:
            self.sim.schedule(SIFS, self._send_control_response, FrameKind.ACK,
                              AckFrame(dst=outcome.ack_destination),
                              priority=Simulator.PRIORITY_MAC)

    def _deliver_up(self, subframe: MacSubframe) -> None:
        self.stats.subframes_delivered_up += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(self.name, "mac", "deliver", src=str(subframe.src), packet=subframe.packet)
        if self._receive_callback is not None:
            self._receive_callback(subframe.packet, subframe.src)

    # ------------------------------------------------------------------
    # Exchange completion
    # ------------------------------------------------------------------
    def _complete_success(self, broadcast_only: bool = False) -> None:
        current = self._current
        retries = self._retry_count
        self.backoff.on_success()
        self._retry_count = 0
        self._current = None
        self._pending_retry = None
        self._flush_forced = False
        self.state = MacState.IDLE
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(self.name, "mac", "exchange_done", broadcast_only=broadcast_only,
                        retries=retries, build=current)
        self._try_start_access()

    def _on_response_timeout(self) -> None:
        if self.state is MacState.WAIT_CTS:
            self._handle_failure(data_was_sent=False)
        elif self.state is MacState.WAIT_ACK:
            self._handle_failure(data_was_sent=True)

    def _handle_failure(self, data_was_sent: bool) -> None:
        if self._current is None:  # pragma: no cover - defensive
            self.state = MacState.IDLE
            self._try_start_access()
            return
        self.stats.retransmissions += 1
        self.backoff.on_failure()
        self._retry_count += 1

        current = self._current
        gave_up = self._retry_count > RETRY_LIMIT
        if gave_up:
            # Give up on the unicast portion entirely (and, when the RTS
            # chain failed, on the never-sent broadcast portion too).
            dropped = len(current.unicast_subframes)
            self.stats.unicast_drops += dropped
            self._pending_retry = None
            self._retry_count = 0
            self.backoff.on_success()
        else:
            if data_was_sent:
                # The broadcast portion was already transmitted (unacknowledged);
                # only the unicast portion is retried.
                retry = self._current.without_broadcast_portion()
            else:
                # The RTS failed: nothing went out, keep the whole aggregate.
                retry = self._current
            for subframe in retry.unicast_subframes:
                subframe.retries += 1
            # Only exchanges with a unicast portion can fail (RTS and ACK
            # wait only for those), so the retry is never empty.
            self._pending_retry = retry

        self._current = None
        self.state = MacState.IDLE
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(self.name, "mac", "exchange_failed", retries=self._retry_count,
                        data_sent=data_was_sent, gave_up=gave_up, build=current)
        self._try_start_access()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _collect_metrics(self, registry) -> None:
        """Snapshot-time collector: the MacStatistics summary as gauges."""
        for key, value in self.stats.summary().items():
            if isinstance(value, (int, float)):
                registry.set_gauge(f"mac.{key}", value, node=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<AggregatingMac {self.name} state={self.state.value} "
                f"queued={self.queues.total_count}>")
