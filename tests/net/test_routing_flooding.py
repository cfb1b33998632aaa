"""Unit tests for static routing, the forwarding engine and flooding."""

from __future__ import annotations

import pytest

from repro.core import broadcast_aggregation
from repro.errors import RoutingError
from repro.net.address import IpAddress
from repro.net.flooding import FloodingSource
from repro.net.packet import Packet, TcpHeader
from repro.net.routing import BROADCAST_IP, NeighborTable, RoutingTable
from repro.obs.session import observe
from repro.sim import Simulator
from repro.topology import build_linear_chain
from repro.errors import ConfigurationError
from repro.mac.addresses import BROADCAST_MAC, MacAddress

from helpers.obs import audit_balanced, journey_events
from helpers.routing import has_valid_route


# ---------------------------------------------------------------------------
# RoutingTable / NeighborTable
# ---------------------------------------------------------------------------

def test_routing_table_lookup_and_default():
    table = RoutingTable()
    table.add_route("10.0.0.3", "10.0.0.2")
    assert table.next_hop("10.0.0.3") == IpAddress("10.0.0.2")
    assert has_valid_route(table, "10.0.0.3")
    # There is no default route: every other destination misses.
    assert not has_valid_route(table, "10.0.0.9")
    with pytest.raises(RoutingError):
        table.next_hop("10.0.0.9")
    assert len(table) == 1


def test_static_route_repr():
    # A static route is the entry add_route installs: one hop, no sequence.
    table = RoutingTable()
    table.add_route("10.0.0.3", "10.0.0.2")
    (route,) = table.entries()
    assert "10.0.0.3" in str(route)
    assert str(route) == "10.0.0.3 via 10.0.0.2 (1 hops, seq -1)"


def test_neighbor_table_resolution():
    table = NeighborTable()
    table.add("10.0.0.2", MacAddress.node(2))
    assert table.resolve("10.0.0.2") == MacAddress.node(2)
    assert table.resolve(BROADCAST_IP) == BROADCAST_MAC
    with pytest.raises(RoutingError):
        table.resolve("10.0.0.99")


# ---------------------------------------------------------------------------
# ForwardingEngine (via a real 3-node chain)
# ---------------------------------------------------------------------------

def build_chain(sim):
    return build_linear_chain(sim, hops=2, policy=broadcast_aggregation(),
                              unicast_rate_mbps=1.3)


def test_local_delivery_and_forwarding():
    sim = Simulator(seed=11)
    network = build_chain(sim)
    received = []
    network.node(3).network.register_handler(
        "tcp", lambda packet, src: received.append(packet))
    packet = Packet.tcp_segment(network.node(1).ip, network.node(3).ip,
                                TcpHeader(1, 2, flags_ack=True), payload_bytes=500)
    assert network.node(1).network.send(packet)
    sim.run(until=2.0)
    assert len(received) == 1
    assert network.node(2).network.stats.forwarded == 1
    assert network.node(3).network.stats.delivered_local == 1


def test_loopback_delivery_bypasses_mac():
    sim = Simulator(seed=12)
    network = build_chain(sim)
    node = network.node(1)
    received = []
    node.network.register_handler("tcp", lambda packet, src: received.append(packet))
    packet = Packet.tcp_segment(node.ip, node.ip, TcpHeader(1, 2, flags_ack=True))
    node.network.send(packet)
    assert len(received) == 1
    assert node.mac.queues.empty


def test_unhandled_protocol_counted():
    sim = Simulator(seed=13)
    network = build_chain(sim)
    node = network.node(1)
    from repro.net.packet import IpHeader
    # A protocol nobody registered a handler for ("raw").
    packet = Packet(ip=IpHeader(src=node.ip, dst=node.ip, protocol="raw"), payload_bytes=10)
    node.network.send(packet)
    assert node.network.stats.unhandled_protocol_drops == 1


def test_ttl_expiry_at_a_relay_drops_on_the_journey():
    from repro.net.packet import IpHeader
    with observe(trace=True, metrics=True, journey=True) as session:
        sim = Simulator(seed=11)
        network = build_chain(sim)
        packet = Packet(ip=IpHeader(src=network.node(1).ip, dst=network.node(3).ip,
                                    protocol="raw", ttl=1), payload_bytes=100)
        assert network.node(1).network.send(packet)
        sim.run(until=2.0)
    assert network.node(2).network.stats.ttl_drops == 1
    assert network.node(3).network.stats.delivered_local == 0
    drops = [key for key in journey_events(session) if key[1] == "drop"]
    assert drops == [("net", "drop", "ttl", "node2")]
    assert audit_balanced(session)


def test_no_route_drop():
    sim = Simulator(seed=14)
    network = build_chain(sim)
    node = network.node(1)
    packet = Packet.tcp_segment(node.ip, IpAddress("10.0.9.9"), TcpHeader(1, 2, flags_ack=True))
    assert not node.network.send(packet)
    assert node.network.stats.no_route_drops == 1


def test_broadcast_packets_delivered_to_flood_handler_on_all_receivers():
    sim = Simulator(seed=15)
    network = build_chain(sim)
    received = {2: [], 3: []}
    for index in (2, 3):
        network.node(index).network.register_handler(
            "flood", lambda packet, src, _i=index: received[_i].append(packet))
    flood = Packet.broadcast_control(network.node(1).ip, payload_bytes=64)
    network.node(1).network.send(flood)
    sim.run(until=2.0)
    assert len(received[2]) == 1
    assert len(received[3]) == 1  # all nodes are in radio range of each other


# ---------------------------------------------------------------------------
# FloodingSource
# ---------------------------------------------------------------------------

def test_flooding_source_generates_packets_at_interval():
    sim = Simulator(seed=16)
    network = build_chain(sim)
    flooder = FloodingSource(sim, network.node(1).network, network.node(1).ip,
                             interval=0.5, payload_bytes=64)
    flooder.start(initial_delay=0.1)
    sim.run(until=3.0)
    assert flooder.packets_sent >= 5
    assert flooder.running
    flooder.stop()
    assert not flooder.running


def test_flooding_source_validation():
    sim = Simulator(seed=17)
    network = build_chain(sim)
    with pytest.raises(ConfigurationError):
        FloodingSource(sim, network.node(1).network, network.node(1).ip, interval=0.0)
    with pytest.raises(ConfigurationError):
        FloodingSource(sim, network.node(1).network, network.node(1).ip, interval=1.0,
                       payload_bytes=-1)
