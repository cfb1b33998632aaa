"""Constant-bit-rate UDP source and measuring sink.

The paper's UDP experiments (Table 2, Figures 7 and 9) use "an application
that simply sent UDP packets at a controllable rate", sized so that each
packet becomes a 1140 B MAC frame.  :class:`CbrSource` reproduces that
generator; :class:`UdpSink` measures goodput at the receiver.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.mac.frames import SUBFRAME_OVERHEAD_BYTES
from repro.net.address import IpAddress
from repro.net.packet import IP_HEADER_BYTES, UDP_HEADER_BYTES, Packet
from repro.sim.simulator import Simulator
from repro.sim.timer import PeriodicTimer
from repro.units import throughput_mbps

#: UDP payload that yields the paper's 1140 B UDP MAC frames.
PAPER_UDP_PAYLOAD_BYTES = 1140 - SUBFRAME_OVERHEAD_BYTES - IP_HEADER_BYTES - UDP_HEADER_BYTES


class CbrSource:
    """Sends fixed-size UDP datagrams at a fixed interval."""

    def __init__(self, node, destination: IpAddress, destination_port: int = 9000,
                 payload_bytes: int = PAPER_UDP_PAYLOAD_BYTES,
                 interval: float = 0.01, local_port: int = 9000,
                 name: Optional[str] = None) -> None:
        if interval <= 0:
            raise ConfigurationError("CBR interval must be positive")
        if payload_bytes <= 0:
            raise ConfigurationError("CBR payload must be positive")
        self.node = node
        self.sim: Simulator = node.sim
        self.destination = IpAddress(destination)
        self.destination_port = destination_port
        self.payload_bytes = payload_bytes
        self.interval = interval
        self.name = name or f"cbr-{node.index}"
        self.socket = node.udp.bind(local_port)
        self.packets_sent = 0
        self._timer = PeriodicTimer(node.sim, interval, self._emit,
                                    priority=Simulator.PRIORITY_APP, name=self.name)

    @classmethod
    def saturating(cls, node, destination: IpAddress, link_rate_bps: float,
                   destination_port: int = 9000,
                   payload_bytes: int = PAPER_UDP_PAYLOAD_BYTES,
                   overdrive: float = 2.0, **kwargs) -> "CbrSource":
        """A source whose offered load is ``overdrive`` times the PHY rate.

        Used wherever the paper drives the path to saturation so that queues
        build up and aggregation engages (Table 2, Figure 7).
        """
        interval = (payload_bytes * 8.0) / (link_rate_bps * overdrive)
        return cls(node, destination, destination_port=destination_port,
                   payload_bytes=payload_bytes, interval=interval, **kwargs)

    def start(self, delay: float = 0.0) -> None:
        """Start emitting datagrams after ``delay`` seconds."""
        self._timer.start(delay if delay > 0 else self.interval)

    def stop(self) -> None:
        """Stop the source."""
        self._timer.stop()

    def _emit(self) -> None:
        self.socket.send_to(self.destination, self.destination_port, self.payload_bytes,
                            annotations={"cbr_index": self.packets_sent})
        self.packets_sent += 1


class UdpSink:
    """Counts received UDP bytes and reports goodput."""

    def __init__(self, node, local_port: int = 9000, name: Optional[str] = None) -> None:
        self.node = node
        self.sim: Simulator = node.sim
        self.name = name or f"sink-{node.index}"
        self.socket = node.udp.bind(local_port)
        self.socket.on_receive(self._on_datagram)
        self.packets_received = 0
        self.bytes_received = 0
        self.first_arrival: Optional[float] = None
        self.last_arrival: Optional[float] = None
        #: Largest gap between consecutive arrivals — the application's view
        #: of an outage (used by the failover experiments).
        self.largest_arrival_gap = 0.0
        #: Byte-counter snapshots usable as measurement-window starts.
        self._snapshots = {0.0: 0}

    def _on_datagram(self, packet: Packet, source: IpAddress) -> None:
        self.packets_received += 1
        self.bytes_received += packet.payload_bytes
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(self.node.name, "app", "consume", sink=self.name, packet=packet)
        if self.first_arrival is None:
            self.first_arrival = self.sim.now
        else:
            self.largest_arrival_gap = max(self.largest_arrival_gap,
                                           self.sim.now - self.last_arrival)
        self.last_arrival = self.sim.now

    def snapshot_at(self, time: float) -> None:
        """Record the byte count at simulated ``time`` (before the run).

        A snapshot makes ``time`` a valid ``measurement_start`` for
        :meth:`throughput_mbps`, excluding warmup-period bytes from the
        measured window.  The snapshot fires at PHY priority so datagrams
        arriving exactly at ``time`` land inside the window.
        """
        self.sim.schedule_at(
            time, lambda: self._snapshots.__setitem__(time, self.bytes_received),
            priority=Simulator.PRIORITY_PHY)

    def bytes_at(self, time: float) -> int:
        """Byte count recorded by the snapshot at ``time``."""
        return self._snapshots[time]

    def throughput_mbps(self, measurement_start: float = 0.0,
                        measurement_end: Optional[float] = None) -> float:
        """Application goodput in Mbps over the measurement window.

        Both window edges must be byte-countable: ``measurement_start`` must
        be 0 or a time registered with :meth:`snapshot_at`, and
        ``measurement_end`` must be "now" or also snapshotted — otherwise
        out-of-window bytes would leak into the numerator and inflate the
        result.
        """
        end = measurement_end if measurement_end is not None else self.sim.now
        try:
            window_base = self._snapshots[measurement_start]
        except KeyError:
            raise ConfigurationError(
                f"no byte snapshot at t={measurement_start}; call "
                f"snapshot_at() before running the simulation") from None
        if end in self._snapshots:
            end_bytes = self._snapshots[end]
        elif end >= self.sim.now:
            end_bytes = self.bytes_received
        else:
            raise ConfigurationError(
                f"no byte snapshot at t={end} and the clock is already at "
                f"{self.sim.now}; bytes received by then cannot be recovered")
        return throughput_mbps(end_bytes - window_base, end - measurement_start)
