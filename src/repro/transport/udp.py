"""UDP.

A thin datagram layer: sockets are identified by local port, datagrams carry
only their payload size, and delivery is a direct callback.  The paper's UDP
experiments (Table 2, Figures 7 and 9) use a constant-rate source feeding a
sink that measures goodput.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import TransportError
from repro.mac.addresses import MacAddress
from repro.net.address import IpAddress
from repro.net.packet import Packet
from repro.sim.simulator import Simulator

#: Callback signature for received datagrams: ``handler(packet, source_ip)``.
DatagramHandler = Callable[[Packet, IpAddress], None]


class UdpSocket:
    """A bound UDP port on one node."""

    def __init__(self, layer: "UdpLayer", local_port: int) -> None:
        self._layer = layer
        self.local_port = local_port
        self._handler: Optional[DatagramHandler] = None
        self.datagrams_sent = 0
        self.datagrams_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def on_receive(self, handler: DatagramHandler) -> None:
        """Register the receive callback."""
        self._handler = handler

    def send_to(self, destination: IpAddress, destination_port: int, payload_bytes: int,
                annotations: Optional[dict] = None) -> bool:
        """Send ``payload_bytes`` of application data to ``destination:destination_port``."""
        packet = Packet.udp_datagram(
            src=self._layer.address, dst=IpAddress(destination),
            src_port=self.local_port, dst_port=destination_port,
            payload_bytes=payload_bytes, created_at=self._layer.sim.now,
            annotations=annotations,
        )
        self.datagrams_sent += 1
        self.bytes_sent += payload_bytes
        layer = self._layer
        tracer = layer.sim.tracer
        if tracer.enabled:
            tracer.emit(layer.network.name, "udp", "send", port=destination_port, packet=packet)
        return layer.network.send(packet)

    def deliver(self, packet: Packet) -> None:
        """Called by the layer when a datagram for this port arrives."""
        self.datagrams_received += 1
        self.bytes_received += packet.payload_bytes
        if self._handler is not None:
            self._handler(packet, packet.ip.src)


class UdpLayer:
    """Per-node UDP demultiplexer."""

    def __init__(self, sim: Simulator, network, address: IpAddress) -> None:
        self.sim = sim
        self.network = network
        self.address = IpAddress(address)
        self._sockets: Dict[int, UdpSocket] = {}
        self.delivered = 0
        self.no_port_drops = 0
        sim.metrics.register_collector(self._collect_metrics)
        network.register_handler("udp", self._on_packet)

    def _collect_metrics(self, registry) -> None:
        """Snapshot-time collector: UDP delivery totals as per-node gauges."""
        node = str(self.address)
        registry.set_gauge("udp.delivered", self.delivered, node=node)
        registry.set_gauge("udp.no_port_drops", self.no_port_drops, node=node)

    def bind(self, port: int) -> UdpSocket:
        """Create a socket bound to ``port``."""
        if port in self._sockets:
            raise TransportError(f"UDP port {port} already bound on {self.address}")
        socket = UdpSocket(self, port)
        self._sockets[port] = socket
        return socket

    def _on_packet(self, packet: Packet, source_mac: MacAddress) -> None:
        if packet.udp is None:  # pragma: no cover - defensive
            return
        socket = self._sockets.get(packet.udp.dst_port)
        tracer = self.sim.tracer
        if socket is None:
            self.no_port_drops += 1
            if tracer.enabled:
                tracer.emit(self.network.name, "udp", "drop", reason="no_port", packet=packet)
            return
        self.delivered += 1
        if tracer.enabled:
            tracer.emit(self.network.name, "udp", "deliver", port=packet.udp.dst_port,
                        packet=packet)
        socket.deliver(packet)
