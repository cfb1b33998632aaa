"""Per-node TCP demultiplexer.

The layer owns every :class:`~repro.transport.tcp.connection.TcpConnection`
terminating at its node, creates connections passively when SYNs arrive for
listening ports, and hands incoming segments to the right connection based on
the (local port, remote address, remote port) tuple.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import TransportError
from repro.mac.addresses import MacAddress
from repro.net.address import IpAddress
from repro.net.packet import Packet
from repro.sim.simulator import Simulator
from repro.transport.tcp.connection import PAPER_MSS, TcpConnection

#: Called when a listening port accepts a new connection.
AcceptCallback = Callable[[TcpConnection], None]

ConnectionKey = Tuple[int, int, int]  # (local port, remote ip value, remote port)


class TcpLayer:
    """TCP connection management for one node."""

    def __init__(self, sim: Simulator, network, address: IpAddress,
                 default_mss: int = PAPER_MSS) -> None:
        self.sim = sim
        self.network = network
        self.address = IpAddress(address)
        self.default_mss = default_mss
        self._connections: Dict[ConnectionKey, TcpConnection] = {}
        self._listeners: Dict[int, AcceptCallback] = {}
        self._ephemeral_port = 49152
        self.segments_received = 0
        self.segments_dropped = 0
        sim.metrics.register_collector(self._collect_metrics)
        network.register_handler("tcp", self._on_packet)

    def _collect_metrics(self, registry) -> None:
        """Snapshot-time collector: TCP segment totals as per-node gauges."""
        node = str(self.address)
        registry.set_gauge("tcp.segments_received", self.segments_received, node=node)
        registry.set_gauge("tcp.segments_dropped", self.segments_dropped, node=node)
        registry.set_gauge("tcp.connections", len(self._connections), node=node)

    # ------------------------------------------------------------------
    # Socket-style API
    # ------------------------------------------------------------------
    def listen(self, port: int, on_accept: AcceptCallback) -> None:
        """Accept incoming connections on ``port``."""
        if port in self._listeners:
            raise TransportError(f"TCP port {port} is already listening on {self.address}")
        self._listeners[port] = on_accept

    def connect(self, remote_ip: IpAddress, remote_port: int,
                local_port: Optional[int] = None, mss: Optional[int] = None,
                **connection_options) -> TcpConnection:
        """Open a connection to ``remote_ip:remote_port`` (active open).

        Extra keyword arguments (e.g. ``idle_reprobe=True``) are passed to
        the :class:`TcpConnection` constructor.
        """
        if local_port is None:
            local_port = self._next_ephemeral_port()
        key = (local_port, IpAddress(remote_ip).value, remote_port)
        if key in self._connections:
            raise TransportError(f"connection {key} already exists")
        connection = TcpConnection(
            sim=self.sim, network=self.network, local_ip=self.address, local_port=local_port,
            remote_ip=IpAddress(remote_ip), remote_port=remote_port,
            mss=mss or self.default_mss, **connection_options,
        )
        self._connections[key] = connection
        connection.open_active()
        return connection

    def _next_ephemeral_port(self) -> int:
        port = self._ephemeral_port
        self._ephemeral_port += 1
        return port

    @property
    def connections(self) -> Dict[ConnectionKey, TcpConnection]:
        """All connections terminating at this node."""
        return dict(self._connections)

    # ------------------------------------------------------------------
    # Demultiplexing
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet, source_mac: MacAddress) -> None:
        header = packet.tcp
        if header is None:  # pragma: no cover - defensive
            return
        self.segments_received += 1
        tracer = self.sim.tracer
        key = (header.dst_port, packet.ip.src.value, header.src_port)
        connection = self._connections.get(key)
        if connection is not None:
            if tracer.enabled:
                tracer.emit(self.network.name, "tcp", "deliver", port=header.dst_port,
                            packet=packet)
            connection.on_segment(packet)
            return

        if header.flags_syn and not header.flags_ack and header.dst_port in self._listeners:
            connection = TcpConnection(
                sim=self.sim, network=self.network, local_ip=self.address,
                local_port=header.dst_port, remote_ip=packet.ip.src,
                remote_port=header.src_port, mss=self.default_mss,
            )
            self._connections[key] = connection
            if tracer.enabled:
                tracer.emit(self.network.name, "tcp", "deliver", port=header.dst_port,
                            packet=packet)
            connection.accept_syn(header.seq)
            self._listeners[header.dst_port](connection)
            return

        self.segments_dropped += 1
        if tracer.enabled:
            tracer.emit(self.network.name, "tcp", "drop", reason="no_connection", packet=packet)
