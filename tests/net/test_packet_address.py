"""Unit tests for the packet model and IP addressing."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.errors import AddressError
from repro.net.address import IpAddress
from repro.net.packet import (
    IP_HEADER_BYTES,
    TCP_HEADER_BYTES,
    UDP_HEADER_BYTES,
    Packet,
    TcpHeader,
)

SRC, DST = IpAddress("10.0.0.1"), IpAddress("10.0.0.2")


# ---------------------------------------------------------------------------
# IpAddress
# ---------------------------------------------------------------------------

def test_ip_parse_and_format():
    address = IpAddress("192.168.1.17")
    assert str(address) == "192.168.1.17"
    assert IpAddress(address.value) == address
    assert IpAddress(address) == address


def test_ip_host_constructor():
    assert str(IpAddress.host(3)) == "10.0.0.3"
    assert IpAddress.host(1) != IpAddress.host(2)


def test_ip_validation():
    for bad in ("10.0.0", "10.0.0.256", "a.b.c.d", -1, 2 ** 32):
        with pytest.raises(AddressError):
            IpAddress(bad)


def test_ip_hash_equality_and_ordering():
    assert len({IpAddress("10.0.0.1"), IpAddress("10.0.0.1")}) == 1
    assert IpAddress("10.0.0.1") < IpAddress("10.0.0.2")
    assert IpAddress("10.0.0.1") == "10.0.0.1"


def test_ip_address_of_an_address_is_that_address():
    """Normalising an address shares it: a node's layers hold one object."""
    address = IpAddress("10.0.0.7")
    assert IpAddress(address) is address
    assert IpAddress(IpAddress(address)) is address
    # Ints and strings still build a new, equal address.
    assert IpAddress(address.value) is not address
    assert IpAddress(str(address)) == address


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_ip_address_pickles(protocol):
    address = IpAddress("10.0.0.7")
    loaded = pickle.loads(pickle.dumps(address, protocol))
    assert type(loaded) is IpAddress
    assert loaded == address and loaded.value == address.value
    assert hash(loaded) == hash(address)


def test_ip_address_copies():
    address = IpAddress("10.0.0.7")
    assert copy.copy(address) == address
    assert copy.deepcopy(address) == address
    table = copy.deepcopy({address: [address]})
    assert table == {address: [address]}


def test_ip_address_compares_with_int_and_str_literals():
    address = IpAddress("10.0.0.7")
    value = address.value
    assert hash(address) == hash(value)
    assert address == value and address == "10.0.0.7"
    assert address != value + 1 and address != "10.0.0.8"
    assert address != "not an address"
    assert address != 1.5
    assert address < value + 1 and address < "10.0.0.8"
    assert address > value - 1 and address >= "10.0.0.7"
    assert address <= value
    assert sorted([IpAddress("10.0.0.9"), address, IpAddress(1)]) == [
        IpAddress(1), address, IpAddress("10.0.0.9")]


# ---------------------------------------------------------------------------
# Packets
# ---------------------------------------------------------------------------

def test_tcp_segment_sizes():
    header = TcpHeader(src_port=1, dst_port=2, flags_ack=True)
    packet = Packet.tcp_segment(SRC, DST, header, payload_bytes=1357)
    assert packet.size_bytes == 1357 + TCP_HEADER_BYTES + IP_HEADER_BYTES
    assert packet.is_tcp and not packet.is_udp


def test_udp_datagram_sizes():
    packet = Packet.udp_datagram(SRC, DST, 9000, 9001, payload_bytes=1045)
    assert packet.size_bytes == 1045 + UDP_HEADER_BYTES + IP_HEADER_BYTES
    assert packet.is_udp and not packet.is_tcp


def test_broadcast_control_packet():
    packet = Packet.broadcast_control(SRC, payload_bytes=64)
    assert str(packet.ip.dst) == "255.255.255.255"
    assert packet.ip.protocol == "flood"
    assert packet.size_bytes == 64 + IP_HEADER_BYTES


def test_pure_tcp_ack_detection():
    pure = Packet.tcp_segment(SRC, DST, TcpHeader(1, 2, flags_ack=True))
    with_data = Packet.tcp_segment(SRC, DST, TcpHeader(1, 2, flags_ack=True), payload_bytes=10)
    syn_ack = Packet.tcp_segment(SRC, DST, TcpHeader(1, 2, flags_ack=True, flags_syn=True))
    fin = Packet.tcp_segment(SRC, DST, TcpHeader(1, 2, flags_ack=True, flags_fin=True))
    assert pure.is_pure_tcp_ack
    assert not with_data.is_pure_tcp_ack
    assert not syn_ack.is_pure_tcp_ack
    assert not fin.is_pure_tcp_ack


def test_packet_cannot_carry_both_transports():
    from repro.net.packet import IpHeader, UdpHeader
    with pytest.raises(ValueError):
        Packet(ip=IpHeader(src=SRC, dst=DST), tcp=TcpHeader(1, 2), udp=UdpHeader(1, 2))
    with pytest.raises(ValueError):
        Packet(ip=IpHeader(src=SRC, dst=DST), payload_bytes=-1)


def test_packet_uids_are_unique():
    first = Packet.broadcast_control(SRC, 10)
    second = Packet.broadcast_control(SRC, 10)
    assert first.uid != second.uid


def test_ttl_decrement_copies_and_leaves_the_original_untouched():
    header = TcpHeader(src_port=1, dst_port=2, seq=7, flags_ack=True)
    packet = Packet.tcp_segment(SRC, DST, header, payload_bytes=100, created_at=1.5,
                                annotations={"app_seq": 3})
    ip = packet.ip
    forwarded = packet.with_decremented_ttl()
    # The original packet and its IP header are as they were.
    assert packet.ip is ip
    assert (ip.src, ip.dst, ip.protocol, ip.ttl, ip.size_bytes) == (SRC, DST, "tcp", 64, 20)
    assert packet.annotations == {"app_seq": 3}
    # The copy has a new header one hop shorter, the same uid and the rest.
    assert forwarded is not packet and forwarded.ip is not ip
    assert (forwarded.ip.src, forwarded.ip.dst, forwarded.ip.protocol, forwarded.ip.ttl,
            forwarded.ip.size_bytes) == (SRC, DST, "tcp", 63, 20)
    assert forwarded.uid == packet.uid
    assert forwarded.tcp is header
    assert (forwarded.payload_bytes, forwarded.created_at, forwarded.size_bytes) == (
        100, 1.5, packet.size_bytes)
    assert forwarded.annotations == {"app_seq": 3}
    assert forwarded.annotations is not packet.annotations


def test_ttl_decrement_preserves_uid():
    packet = Packet.broadcast_control(SRC, 10)
    forwarded = packet.with_decremented_ttl()
    assert forwarded.ip.ttl == packet.ip.ttl - 1
    assert forwarded.uid == packet.uid


def test_tcp_header_flags_description():
    header = TcpHeader(1, 2, flags_syn=True, flags_ack=True)
    assert header.is_connection_setup
    assert not TcpHeader(1, 2, flags_ack=True).is_connection_setup
