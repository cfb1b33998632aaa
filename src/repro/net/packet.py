"""The packet model.

Packets are metadata objects, not byte buffers: the simulator only needs
sizes, addresses and the handful of header fields the protocols act on.  A
:class:`Packet` carries an :class:`IpHeader` plus at most one transport
header (:class:`TcpHeader` or :class:`UdpHeader`) and an opaque payload size.

The size accounting reproduces the frame sizes reported in Section 5 of the
paper once MAC encapsulation (see :mod:`repro.mac.frames`) is added:
an MSS-sized (1357 B) TCP segment becomes a 1464 B MAC frame and a pure TCP
ACK becomes a 160 B MAC frame.

Headers and packets are plain slotted records, built once per segment and
per hop.  Nothing changes a header after it is built, and nothing hashes
one: a hop that changes a field builds a new header
(:meth:`Packet.with_decremented_ttl`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.net.address import IpAddress

#: Header sizes in bytes.
IP_HEADER_BYTES = 20
TCP_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8

_packet_ids = itertools.count(1)


@dataclass(slots=True)
class TcpHeader:
    """The TCP header fields the simulation acts on."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags_syn: bool = False
    flags_ack: bool = False
    flags_fin: bool = False
    flags_rst: bool = False
    window: int = 65535
    size_bytes: int = TCP_HEADER_BYTES

    @property
    def is_connection_setup(self) -> bool:
        """True for segments that are part of connection establishment/teardown."""
        return self.flags_syn or self.flags_fin or self.flags_rst


@dataclass(slots=True)
class UdpHeader:
    """The UDP header fields the simulation acts on."""

    src_port: int
    dst_port: int
    size_bytes: int = UDP_HEADER_BYTES


@dataclass(slots=True)
class IpHeader:
    """The IP header fields the simulation acts on."""

    src: IpAddress
    dst: IpAddress
    protocol: str = "raw"
    ttl: int = 64
    size_bytes: int = IP_HEADER_BYTES


@dataclass(slots=True)
class Packet:
    """A network-layer packet (IP header + optional transport header + payload)."""

    ip: IpHeader
    payload_bytes: int = 0
    tcp: Optional[TcpHeader] = None
    udp: Optional[UdpHeader] = None
    created_at: float = 0.0
    uid: int = field(default_factory=_packet_ids.__next__)
    #: Free-form annotations used by applications and statistics (e.g. the
    #: application-level sequence number of a CBR packet).
    annotations: Dict[str, Any] = field(default_factory=dict)
    _size_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        if self.tcp is not None and self.udp is not None:
            raise ValueError("a packet cannot carry both TCP and UDP headers")
        # Sizes are fixed at construction (headers are never changed and the
        # payload size never changes), but queried once per hop per receiver;
        # precompute instead of re-summing on each access.
        self._size_bytes = (
            self.ip.size_bytes + self.transport_header_bytes + self.payload_bytes)

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def transport_header_bytes(self) -> int:
        """Size of the transport header (0 when there is none)."""
        if self.tcp is not None:
            return self.tcp.size_bytes
        if self.udp is not None:
            return self.udp.size_bytes
        return 0

    @property
    def size_bytes(self) -> int:
        """Total network-layer size: IP header + transport header + payload."""
        return self._size_bytes

    # ------------------------------------------------------------------
    # Classification helpers
    # ------------------------------------------------------------------
    @property
    def is_tcp(self) -> bool:
        """True when the packet carries a TCP segment."""
        return self.tcp is not None

    @property
    def is_udp(self) -> bool:
        """True when the packet carries a UDP datagram."""
        return self.udp is not None

    @property
    def is_pure_tcp_ack(self) -> bool:
        """True for 'pure' TCP ACKs as defined in Section 4.2.4 of the paper.

        A pure TCP ACK carries no data and is not part of connection set-up or
        tear-down (no SYN/FIN/RST flag).
        """
        return (
            self.tcp is not None
            and self.tcp.flags_ack
            and self.payload_bytes == 0
            and not self.tcp.is_connection_setup
        )

    # ------------------------------------------------------------------
    # Constructors / copies
    # ------------------------------------------------------------------
    @classmethod
    def tcp_segment(cls, src: IpAddress, dst: IpAddress, header: TcpHeader,
                    payload_bytes: int = 0, created_at: float = 0.0,
                    annotations: Optional[Dict[str, Any]] = None) -> "Packet":
        """Build a TCP packet."""
        return cls(ip=IpHeader(src=src, dst=dst, protocol="tcp"), payload_bytes=payload_bytes,
                   tcp=header, created_at=created_at, annotations=dict(annotations or {}))

    @classmethod
    def udp_datagram(cls, src: IpAddress, dst: IpAddress, src_port: int, dst_port: int,
                     payload_bytes: int, created_at: float = 0.0,
                     annotations: Optional[Dict[str, Any]] = None) -> "Packet":
        """Build a UDP packet."""
        return cls(ip=IpHeader(src=src, dst=dst, protocol="udp"), payload_bytes=payload_bytes,
                   udp=UdpHeader(src_port=src_port, dst_port=dst_port),
                   created_at=created_at, annotations=dict(annotations or {}))

    @classmethod
    def broadcast_control(cls, src: IpAddress, payload_bytes: int, created_at: float = 0.0,
                          annotations: Optional[Dict[str, Any]] = None) -> "Packet":
        """Build a flooding/control packet addressed to the IP broadcast address."""
        return cls(ip=IpHeader(src=src, dst=IpAddress("255.255.255.255"), protocol="flood"),
                   payload_bytes=payload_bytes, created_at=created_at,
                   annotations=dict(annotations or {}))

    def with_decremented_ttl(self) -> "Packet":
        """Copy of the packet with TTL reduced by one (same uid, same transport header)."""
        ip = self.ip
        return Packet(IpHeader(ip.src, ip.dst, ip.protocol, ip.ttl - 1, ip.size_bytes),
                      self.payload_bytes, self.tcp, self.udp, self.created_at, self.uid,
                      dict(self.annotations))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        proto = "tcp" if self.is_tcp else ("udp" if self.is_udp else self.ip.protocol)
        return (f"<Packet #{self.uid} {proto} {self.ip.src}->{self.ip.dst} "
                f"{self.size_bytes}B>")
