"""TCP connection tests over an ideal in-memory network.

These tests exercise the TCP state machine in isolation from the wireless
stack: a :class:`LoopbackNetwork` delivers segments between two connections
with a configurable delay and an optional per-packet drop pattern, so
handshake, sliding window, fast retransmit and RTO behaviour can be verified
deterministically.
"""

from __future__ import annotations

from typing import Callable, Optional

import pytest

from repro.core import broadcast_aggregation
from repro.net.address import IpAddress
from repro.net.packet import Packet
from repro.obs.session import observe
from repro.sim import Simulator
from repro.topology import build_linear_chain
from repro.transport.tcp.connection import TcpConnection, TcpState

from helpers.obs import audit_balanced, journey_events

CLIENT_IP, SERVER_IP = IpAddress("10.0.0.1"), IpAddress("10.0.0.2")


class LoopbackNetwork:
    """Delivers packets directly to the peer connection after a fixed delay."""

    def __init__(self, sim: Simulator, delay: float = 0.01):
        self.sim = sim
        self.delay = delay
        self.peers = {}
        self.sent_packets = []
        self.drop_filter: Optional[Callable[[Packet], bool]] = None

    def attach(self, address: IpAddress, connection: TcpConnection) -> None:
        self.peers[IpAddress(address)] = connection

    def send(self, packet: Packet) -> bool:
        self.sent_packets.append(packet)
        if self.drop_filter is not None and self.drop_filter(packet):
            return True
        peer = self.peers.get(packet.ip.dst)
        if peer is None:
            return False
        self.sim.schedule(self.delay, peer.on_segment, packet)
        return True


def all_data_acknowledged(connection: TcpConnection) -> bool:
    """Every byte the application wrote was sent and cumulatively acknowledged."""
    return connection.send_buffer_bytes == 0 and connection.snd_una == connection.snd_nxt


def make_pair(sim, delay=0.01, mss=1000):
    network = LoopbackNetwork(sim, delay=delay)
    client = TcpConnection(sim, network, CLIENT_IP, 40000, SERVER_IP, 5001, mss=mss)
    server = TcpConnection(sim, network, SERVER_IP, 5001, CLIENT_IP, 40000, mss=mss)
    network.attach(CLIENT_IP, client)
    network.attach(SERVER_IP, server)
    return network, client, server


def handshake(sim, network, client, server):
    # Wire the passive side: when the SYN arrives the server accepts it.
    original = server.on_segment

    def server_receive(packet):
        if server.state is TcpState.CLOSED and packet.tcp.flags_syn:
            server.accept_syn(packet.tcp.seq)
            return
        original(packet)

    network.peers[SERVER_IP] = type("P", (), {"on_segment": staticmethod(server_receive)})()
    client.open_active()
    sim.run(until=1.0)
    network.peers[SERVER_IP] = server  # restore direct delivery
    # Replay: further segments go straight to server.on_segment via the dict.


def establish(sim, delay=0.01, mss=1000):
    network, client, server = make_pair(sim, delay=delay, mss=mss)

    def deliver_to_server(packet):
        if server.state is TcpState.CLOSED and packet.tcp.flags_syn:
            server.accept_syn(packet.tcp.seq)
        else:
            server.on_segment(packet)

    network.peers[SERVER_IP] = type("Peer", (), {"on_segment": staticmethod(deliver_to_server)})()
    client.open_active()
    sim.run(until=1.0)
    return network, client, server


def test_three_way_handshake():
    sim = Simulator(seed=1)
    network, client, server = establish(sim)
    assert client.state is TcpState.ESTABLISHED
    assert server.state is TcpState.ESTABLISHED
    assert client.snd_una == 1 and server.rcv_nxt == 1


def test_data_transfer_and_cumulative_acks():
    sim = Simulator(seed=2)
    network, client, server = establish(sim)
    received = []
    server.on_data_received = received.append
    client.send(5000)
    sim.run(until=5.0)
    assert sum(received) == 5000
    assert all_data_acknowledged(client)
    assert server.pure_acks_sent >= 5  # one ACK per segment
    assert client.snd_una == client.snd_nxt


def test_every_data_segment_triggers_a_pure_ack():
    sim = Simulator(seed=3)
    network, client, server = establish(sim)
    client.send(3000)
    sim.run(until=5.0)
    data_segments = [p for p in network.sent_packets if p.payload_bytes > 0]
    pure_acks = [p for p in network.sent_packets if p.is_pure_tcp_ack]
    assert len(pure_acks) >= len(data_segments)


def test_fin_teardown():
    sim = Simulator(seed=4)
    network, client, server = establish(sim)
    closed = []
    server.on_closed = lambda: closed.append("server")
    client.send(2000)
    client.close()
    sim.run(until=5.0)
    assert client.state in (TcpState.FIN_WAIT_2, TcpState.CLOSED)
    assert server.state is TcpState.CLOSE_WAIT
    assert closed == ["server"]
    assert server.peer_fin_received


def test_lost_data_segment_recovered_by_fast_retransmit():
    sim = Simulator(seed=5)
    network, client, server = establish(sim)
    drop_state = {"dropped": False}

    def drop_second_data(packet):
        if packet.payload_bytes > 0 and packet.tcp.seq == 1001 and not drop_state["dropped"]:
            drop_state["dropped"] = True
            return True
        return False

    network.drop_filter = drop_second_data
    client.send(10_000)
    sim.run(until=10.0)
    assert drop_state["dropped"]
    assert server.bytes_received == 10_000
    assert client.retransmitted_segments >= 1
    assert all_data_acknowledged(client)


@pytest.mark.parametrize("lost_seq, file_bytes", [(10_001, 40_000), (5_001, 40_000),
                                                  (20_001, 60_000)])
def test_full_ack_ends_fast_recovery_without_a_second_retransmission(lost_seq, file_bytes):
    """RFC 6582: the ACK of everything sent before recovery began (ackno ==
    recover) is a full ACK, so it ends recovery instead of resending the
    segment at the new snd_una as a partial ACK would."""
    sim = Simulator(seed=5)
    network, client, server = establish(sim)
    drop_state = {"dropped": False}

    def drop_once(packet):
        if packet.payload_bytes > 0 and packet.tcp.seq == lost_seq and not drop_state["dropped"]:
            drop_state["dropped"] = True
            return True
        return False

    network.drop_filter = drop_once
    client.send(file_bytes)
    sim.run(until=20.0)
    assert drop_state["dropped"]
    assert client.cc.fast_recoveries == 1
    assert not client.cc.in_fast_recovery
    assert client.retransmitted_segments == 1
    assert client.timeouts == 0
    assert server.bytes_received == file_bytes
    assert all_data_acknowledged(client)


def test_lost_ack_is_harmless_because_acks_are_cumulative():
    """The property Section 3.3 relies on: dropping pure ACKs does not stall TCP."""
    sim = Simulator(seed=6)
    network, client, server = establish(sim)
    counter = {"n": 0}

    def drop_every_other_ack(packet):
        if packet.is_pure_tcp_ack:
            counter["n"] += 1
            return counter["n"] % 2 == 0
        return False

    network.drop_filter = drop_every_other_ack
    client.send(20_000)
    sim.run(until=20.0)
    assert server.bytes_received == 20_000
    assert all_data_acknowledged(client)
    # Cumulative ACKs absorb the losses mid-stream; at most the final ACK's
    # loss can force a single retransmission timeout.
    assert client.timeouts <= 1
    assert client.retransmitted_segments <= 2


def test_retransmission_timeout_recovers_from_total_blackout():
    sim = Simulator(seed=7)
    network, client, server = establish(sim)
    window = {"blackout": True}
    network.drop_filter = lambda packet: window["blackout"] and packet.payload_bytes > 0
    client.send(3000)
    sim.schedule(2.0, lambda: window.update(blackout=False))
    sim.run(until=30.0)
    assert server.bytes_received == 3000
    assert client.timeouts >= 1
    assert client.cc.timeouts >= 1


def test_window_limits_outstanding_data():
    sim = Simulator(seed=8)
    network, client, server = establish(sim, delay=0.2, mss=1000)
    client.send(100_000)
    # Immediately after sending, the flight size cannot exceed the window.
    assert client.flight_size <= client.cc.window(client.peer_window)
    sim.run(until=60.0)
    assert server.bytes_received == 100_000


def test_send_in_invalid_state_rejected():
    sim = Simulator(seed=9)
    network, client, server = make_pair(sim)
    from repro.errors import TcpStateError
    with pytest.raises(TcpStateError):
        client.send(100)  # CLOSED
    client.open_active()
    client.close()
    with pytest.raises(TcpStateError):
        client.send(100)  # after close()


def test_syn_to_a_closed_port_drops_on_the_journey():
    # Over a real 1-hop stack: nobody listens on the server port, so every
    # SYN (and each retransmitted SYN) is dropped by the TCP demultiplexer.
    with observe(trace=True, metrics=True, journey=True) as session:
        sim = Simulator(seed=5)
        network = build_linear_chain(sim, hops=1, policy=broadcast_aggregation(),
                                     unicast_rate_mbps=1.3)
        network.node(1).tcp.connect(network.node(2).ip, 5001)
        sim.run(until=2.0)
    server = network.node(2).tcp
    assert server.segments_dropped >= 1
    drops = [key for key in journey_events(session) if key[1] == "drop"]
    assert drops == [("tcp", "drop", "no_connection", "node2")] * server.segments_dropped
    assert audit_balanced(session)
