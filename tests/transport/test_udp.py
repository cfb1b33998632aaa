"""Unit tests for the UDP layer over a real 2-hop chain."""

from __future__ import annotations

import pytest

from repro.core import broadcast_aggregation
from repro.errors import TransportError
from repro.obs.session import observe
from repro.sim import Simulator
from repro.topology import build_linear_chain

from helpers.obs import audit_balanced, journey_events


def build(sim):
    return build_linear_chain(sim, hops=2, policy=broadcast_aggregation(),
                              unicast_rate_mbps=1.3)


def test_datagram_delivery_end_to_end():
    sim = Simulator(seed=21)
    network = build(sim)
    receiver = network.node(3).udp.bind(9000)
    received = []
    receiver.on_receive(lambda packet, src: received.append((packet.payload_bytes, str(src))))
    sender = network.node(1).udp.bind(9000)
    sender.send_to(network.node(3).ip, 9000, 800)
    sim.run(until=2.0)
    assert received == [(800, "10.0.0.1")]
    assert receiver.datagrams_received == 1
    assert receiver.bytes_received == 800
    assert sender.datagrams_sent == 1


def test_unbound_port_drops():
    sim = Simulator(seed=22)
    network = build(sim)
    sender = network.node(1).udp.bind(9000)
    sender.send_to(network.node(3).ip, 12345, 100)
    sim.run(until=2.0)
    assert network.node(3).udp.no_port_drops == 1


def test_unbound_port_drop_reclassifies_the_delivery_on_the_journey():
    with observe(trace=True, metrics=True, journey=True) as session:
        sim = Simulator(seed=22)
        network = build(sim)
        sender = network.node(1).udp.bind(9000)
        sender.send_to(network.node(3).ip, 12345, 100)
        sim.run(until=2.0)
    events = journey_events(session)
    assert ("net", "deliver", None, "node3") in events
    assert [key for key in events if key[1] == "drop"] == [
        ("udp", "drop", "no_port", "node3")]
    audit = session.conservation_report()["simulations"][0]["audit"]
    assert audit["nodes"]["node3"]["drops"] == {"no_port": 1}
    assert audit_balanced(session)


def test_double_bind_rejected():
    sim = Simulator(seed=23)
    network = build(sim)
    network.node(1).udp.bind(9000)
    with pytest.raises(TransportError):
        network.node(1).udp.bind(9000)


def test_multiple_sockets_demultiplexed():
    sim = Simulator(seed=25)
    network = build(sim)
    received = {9000: 0, 9001: 0}
    for port in received:
        sock = network.node(3).udp.bind(port)
        sock.on_receive(lambda packet, src, _p=port: received.__setitem__(_p, received[_p] + 1))
    sender = network.node(1).udp.bind(7000)
    sender.send_to(network.node(3).ip, 9000, 100)
    sender.send_to(network.node(3).ip, 9001, 100)
    sender.send_to(network.node(3).ip, 9001, 100)
    sim.run(until=2.0)
    assert received == {9000: 1, 9001: 2}
