"""Flooding traffic generator.

Section 6.3 of the paper evaluates broadcast aggregation "in the presence of
flooding": every node generates broadcast frames at a fixed rate, emulating
the route discovery and maintenance floods of protocols such as DSR and AODV.
The generator below produces exactly that workload — fixed-size broadcast
packets at a configurable interval — without modelling any particular routing
protocol's semantics (the nodes do not re-broadcast, matching the paper's
setup where every node hears every other node directly).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.net.address import IpAddress
from repro.net.discovery import rejitter
from repro.net.packet import Packet
from repro.sim.simulator import Simulator
from repro.sim.timer import PeriodicTimer


class FloodingSource:
    """Generates fixed-size broadcast control packets at a fixed interval."""

    def __init__(self, sim: Simulator, network, source_ip: IpAddress,
                 interval: float, payload_bytes: int = 64,
                 name: Optional[str] = None) -> None:
        if interval <= 0:
            raise ConfigurationError("flooding interval must be positive")
        if payload_bytes < 0:
            raise ConfigurationError("flooding payload must be non-negative")
        self.sim = sim
        self.network = network
        self.source_ip = IpAddress(source_ip)
        self.interval = interval
        self.payload_bytes = payload_bytes
        self.name = name or f"flood-{source_ip}"
        self._rng = sim.random.stream(f"flooding.{self.name}")
        self._timer = PeriodicTimer(sim, interval, self._emit,
                                    priority=Simulator.PRIORITY_APP, name=self.name)
        self.packets_sent = 0
        sim.metrics.register_collector(self._collect_metrics)

    def _collect_metrics(self, registry) -> None:
        """Snapshot-time collector: generator output as a per-source gauge."""
        registry.set_gauge("flooding.packets_sent", self.packets_sent,
                           node=self.name)

    def start(self) -> None:
        """Begin flooding; the first packet is jittered to desynchronise nodes."""
        self._timer.start(self._rng.uniform(0.0, self.interval))

    def _emit(self) -> None:
        packet = Packet.broadcast_control(
            src=self.source_ip, payload_bytes=self.payload_bytes, created_at=self.sim.now,
            annotations={"flood_index": self.packets_sent},
        )
        self.packets_sent += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(self.network.name, "app", "send", source=self.name, packet=packet)
        self.network.send(packet)
        # Small jitter on subsequent emissions avoids lock-step collisions
        # between nodes flooding at the same nominal rate.
        rejitter(self._timer, self.interval, self._rng)
