"""Unit tests for MAC addresses and frame size accounting."""

from __future__ import annotations

import pytest

from repro.errors import AddressError
from repro.mac.addresses import BROADCAST_MAC, MacAddress
from repro.mac.frames import (
    ACK_FRAME_BYTES,
    CTS_FRAME_BYTES,
    MIN_SUBFRAME_BYTES,
    RTS_FRAME_BYTES,
    SUBFRAME_OVERHEAD_BYTES,
    AckFrame,
    CtsFrame,
    MacSubframe,
    RtsFrame,
    subframe_for_packet,
)
from repro.net.address import IpAddress
from repro.net.packet import Packet, TcpHeader


def tcp_packet(payload: int, ack_only: bool = False) -> Packet:
    header = TcpHeader(src_port=5001, dst_port=6001, flags_ack=True)
    return Packet.tcp_segment(IpAddress("10.0.0.1"), IpAddress("10.0.0.2"), header,
                              payload_bytes=0 if ack_only else payload)


# ---------------------------------------------------------------------------
# MacAddress
# ---------------------------------------------------------------------------

def test_mac_address_parsing_and_formatting():
    address = MacAddress.node(42)
    assert str(address) == "02:00:00:00:00:2a"
    assert repr(address) == "MacAddress('02:00:00:00:00:2a')"
    assert address == MacAddress(0x02000000002A)
    assert str(BROADCAST_MAC) == "ff:ff:ff:ff:ff:ff"


def test_mac_address_node_constructor():
    assert MacAddress.node(1) != MacAddress.node(2)
    assert str(MacAddress.node(5)).endswith("05")
    with pytest.raises(AddressError):
        MacAddress.node(0)


def test_broadcast_mac():
    assert BROADCAST_MAC.is_broadcast
    assert not MacAddress.node(1).is_broadcast
    assert BROADCAST_MAC == MacAddress(0xFFFFFFFFFFFF)
    assert MacAddress.node(0xFFFFFF) != BROADCAST_MAC


def test_mac_address_validation():
    with pytest.raises(AddressError):
        MacAddress("02:00:00:00:00:2a")
    with pytest.raises(AddressError):
        MacAddress(-1)
    with pytest.raises(AddressError):
        MacAddress(2 ** 48)
    with pytest.raises(AddressError):
        MacAddress.node(0x1000000)
    # Both ends of the 48-bit range are addresses.
    assert MacAddress(0) != BROADCAST_MAC
    assert MacAddress(2 ** 48 - 1).is_broadcast


def test_mac_address_hash_and_ordering():
    a, b = MacAddress.node(1), MacAddress.node(2)
    assert len({a, MacAddress.node(1), b}) == 2
    assert {a: "a", b: "b"}[MacAddress.node(2)] == "b"
    assert a != 0x020000000001 and a != "02:00:00:00:00:01"


# ---------------------------------------------------------------------------
# Frame sizes (Section 5 of the paper)
# ---------------------------------------------------------------------------

def test_tcp_data_subframe_is_1464_bytes():
    """An MSS-sized (1357 B) TCP segment becomes a 1464 B MAC frame."""
    packet = tcp_packet(1357)
    subframe = subframe_for_packet(packet, MacAddress.node(1), MacAddress.node(2))
    assert packet.size_bytes == 1357 + 20 + 20
    assert subframe.size_bytes == 1464


def test_pure_tcp_ack_subframe_is_160_bytes():
    """A pure TCP ACK becomes a 160 B MAC frame (padded to the minimum size)."""
    packet = tcp_packet(0, ack_only=True)
    subframe = subframe_for_packet(packet, MacAddress.node(1), MacAddress.node(2))
    assert subframe.size_bytes == MIN_SUBFRAME_BYTES == 160
    assert subframe.overhead_bytes == 160 - 40


def test_subframe_overhead_accounting():
    packet = tcp_packet(1000)
    subframe = subframe_for_packet(packet, MacAddress.node(1), MacAddress.node(2))
    assert subframe.size_bytes == packet.size_bytes + SUBFRAME_OVERHEAD_BYTES
    assert subframe.overhead_bytes == SUBFRAME_OVERHEAD_BYTES


def test_subframe_broadcast_flag_follows_destination():
    packet = tcp_packet(100)
    unicast = subframe_for_packet(packet, MacAddress.node(1), MacAddress.node(2))
    broadcast = subframe_for_packet(packet, MacAddress.node(1), BROADCAST_MAC)
    assert not unicast.transmit_in_broadcast_portion
    assert broadcast.transmit_in_broadcast_portion
    assert broadcast.dst.is_broadcast


def test_control_frame_sizes():
    rts = RtsFrame(MacAddress.node(1), MacAddress.node(2))
    cts = CtsFrame(MacAddress.node(1))
    ack = AckFrame(MacAddress.node(1))
    assert rts.size_bytes == RTS_FRAME_BYTES == 20
    assert cts.size_bytes == CTS_FRAME_BYTES == 14
    assert ack.size_bytes == ACK_FRAME_BYTES == 14
    # Fixed by the frame type: no frame carries another size.
    for frame in (rts, cts, ack):
        with pytest.raises(AttributeError):
            frame.size_bytes = 99


def test_udp_mac_frame_is_1140_bytes():
    """The paper's UDP payload produces 1140 B MAC frames."""
    from repro.apps.cbr import PAPER_UDP_PAYLOAD_BYTES
    packet = Packet.udp_datagram(IpAddress("10.0.0.1"), IpAddress("10.0.0.2"), 9000, 9000,
                                 payload_bytes=PAPER_UDP_PAYLOAD_BYTES)
    subframe = subframe_for_packet(packet, MacAddress.node(1), MacAddress.node(2))
    assert subframe.size_bytes == 1140
