"""Bounded idle re-probe: the persist-timer-style RTO mitigation.

``mob02`` showed that long path outages phase-lock with TCP's exponentially
backed-off RTO (capped at 60 s): end-to-end retries keep landing while the
path is down, and after the path returns the sender may sit out most of a
full backoff period before retrying.  With ``idle_reprobe=True`` the
retransmission interval is capped at ``REPROBE_INTERVAL`` once
``REPROBE_AFTER_TIMEOUTS`` consecutive RTOs have fired, bounding recovery
latency after an outage.  The flag defaults to **off** so every paper
experiment is unchanged; the tests patch the two module constants.
"""

from __future__ import annotations

import pytest

from repro.net.packet import Packet
from repro.sim import Simulator
from repro.transport.tcp import connection
from tests.transport.test_tcp_connection import (
    CLIENT_IP,
    SERVER_IP,
    LoopbackNetwork,
    TcpConnection,
    all_data_acknowledged,
    handshake,
)


def _pair(sim, delay=0.01, mss=1000, **client_options):
    network = LoopbackNetwork(sim, delay=delay)
    client = TcpConnection(sim, network, CLIENT_IP, 40000, SERVER_IP, 5001,
                           mss=mss, **client_options)
    server = TcpConnection(sim, network, SERVER_IP, 5001, CLIENT_IP, 40000, mss=mss)
    network.attach(CLIENT_IP, client)
    network.attach(SERVER_IP, server)
    return network, client, server


def _outage(network, start: float, end: float):
    """Drop every data packet whose send time falls inside [start, end)."""
    sim = network.sim

    def drop(packet: Packet) -> bool:
        return start <= sim.now < end

    network.drop_filter = drop


class TestIdleReprobe:
    def test_flag_defaults_off(self):
        sim = Simulator(seed=1)
        _, client, _ = _pair(sim)
        assert client.idle_reprobe is False
        assert client.reprobes_sent == 0

    def test_backoff_unbounded_without_the_flag(self, monkeypatch):
        # A 30 s outage: the default sender's RTO doubles past the outage
        # end, so recovery waits for the backed-off timer long after the
        # path is back.
        sim = Simulator(seed=1)
        network, client, server = _pair(sim)
        handshake(sim, network, client, server)
        _outage(network, start=1.0, end=31.0)
        sim.schedule(0.5, client.send, 5000)
        sim.run(until=120.0)
        assert all_data_acknowledged(client)  # it does recover eventually...
        recovery_default = max(p.created_at for p in network.sent_packets
                               if p.payload_bytes > 0)
        assert recovery_default > 31.0
        assert client.reprobes_sent == 0

        # Same outage with the mitigation: the first successful retransmission
        # lands within one reprobe interval of the outage ending.
        monkeypatch.setattr(connection, "REPROBE_INTERVAL", 2.0)
        sim2 = Simulator(seed=1)
        network2, client2, server2 = _pair(sim2, idle_reprobe=True)
        handshake(sim2, network2, client2, server2)
        _outage(network2, start=1.0, end=31.0)
        sim2.schedule(0.5, client2.send, 5000)
        sim2.run(until=120.0)
        assert all_data_acknowledged(client2)
        assert client2.reprobes_sent > 0
        recovery_probed = min(p.created_at for p in network2.sent_packets
                              if p.payload_bytes > 0 and p.created_at >= 31.0)
        assert recovery_probed <= 31.0 + 2.0 + 1e-9
        assert recovery_probed < recovery_default

    def test_probe_cadence_is_bounded_during_a_long_outage(self, monkeypatch):
        monkeypatch.setattr(connection, "REPROBE_AFTER_TIMEOUTS", 2)
        monkeypatch.setattr(connection, "REPROBE_INTERVAL", 3.0)
        sim = Simulator(seed=1)
        network, client, server = _pair(sim, idle_reprobe=True)
        handshake(sim, network, client, server)
        _outage(network, start=1.0, end=200.0)  # never ends within the run
        sim.schedule(0.5, client.send, 2000)
        sim.run(until=60.0)
        retransmissions = [p.created_at for p in network.sent_packets
                           if p.payload_bytes > 0 and p.created_at > 20.0]
        assert retransmissions, "probes must keep flowing during the outage"
        gaps = [b - a for a, b in zip(retransmissions, retransmissions[1:])]
        assert gaps and max(gaps) <= 3.0 + 1e-9

    def test_successful_ack_resets_the_consecutive_timeout_count(self):
        assert connection.REPROBE_AFTER_TIMEOUTS == 3
        sim = Simulator(seed=1)
        network, client, server = _pair(sim, idle_reprobe=True)
        handshake(sim, network, client, server)
        _outage(network, start=1.0, end=8.0)
        sim.schedule(0.5, client.send, 3000)
        sim.run(until=30.0)
        assert all_data_acknowledged(client)
        assert client._consecutive_timeouts == 0

    def test_reprobe_never_shortens_a_small_rto(self, monkeypatch):
        # With a huge REPROBE_INTERVAL the mitigation can never fire: the
        # capped delay equals the plain backoff, byte for byte.
        monkeypatch.setattr(connection, "REPROBE_INTERVAL", 1e9)
        def transcript(**options):
            sim = Simulator(seed=1)
            network, client, server = _pair(sim, **options)
            handshake(sim, network, client, server)
            _outage(network, start=1.0, end=5.0)
            sim.schedule(0.5, client.send, 4000)
            sim.run(until=40.0)
            return [(round(p.created_at, 9), p.payload_bytes)
                    for p in network.sent_packets]

        assert transcript() == transcript(idle_reprobe=True)
