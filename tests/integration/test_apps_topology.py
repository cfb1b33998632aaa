"""Integration tests: applications over the full stack and topology builders."""

from __future__ import annotations

import pytest

from repro.apps.cbr import CbrSource, UdpSink
from repro.apps.file_transfer import run_file_transfer_pair
from repro.channel import WirelessChannel
from repro.core import (
    broadcast_aggregation,
    delayed_broadcast_aggregation,
    no_aggregation,
    unicast_aggregation,
)
from repro.errors import ConfigurationError
from repro.node import Node
from repro.phy.device import TX_POWER_DBM
from repro.phy.rates import HYDRA_BASE_RATE, HYDRA_SISO_RATES
from repro.sim import Simulator
from repro.topology import Network, build_linear_chain, build_star
from repro.transport.tcp import TcpState
from repro.units import mbps


# ---------------------------------------------------------------------------
# Topology builders
# ---------------------------------------------------------------------------

def test_linear_chain_structure():
    sim = Simulator(seed=51)
    network = build_linear_chain(sim, hops=3, policy=broadcast_aggregation())
    assert len(network) == 4
    assert [node.index for node in network.nodes] == [1, 2, 3, 4]
    # Static routes: node 1 reaches node 4 via node 2.
    assert network.node(1).routing_table.next_hop(network.node(4).ip) == network.node(2).ip
    assert network.node(4).routing_table.next_hop(network.node(1).ip) == network.node(3).ip
    # Adjacent spacing is the paper's 2.5 m.
    x1, x2 = (network.node(i).phy.position_at(0.0)[0] for i in (1, 2))
    assert x2 - x1 == pytest.approx(2.5)


def test_network_numbers_nodes_in_the_order_they_are_added():
    sim = Simulator(seed=50)
    network = Network(sim, policy=broadcast_aggregation())
    added = [network.add_node((8.0 * i, 0.0)) for i in range(3)]
    assert [node.index for node in added] == [1, 2, 3]
    assert [network.node(i) for i in (1, 2, 3)] == added == network.nodes
    assert len(network) == 3
    # Every node shares the network's channel and neighbor table.
    assert all(node.channel is network.channel for node in added)
    assert [network.neighbors.resolve(node.ip) for node in added] == [
        node.mac_address for node in added]
    for index in (0, len(network) + 1):
        with pytest.raises(ConfigurationError):
            network.node(index)


def test_linear_chain_rejects_zero_hops():
    sim = Simulator(seed=52)
    with pytest.raises(ConfigurationError):
        build_linear_chain(sim, hops=0, policy=broadcast_aggregation())


def test_star_structure_and_routes():
    sim = Simulator(seed=53)
    network = build_star(sim, policy=broadcast_aggregation())
    assert len(network) == 4
    centre = network.node(2)
    # Leaves route to each other through the centre.
    assert network.node(3).routing_table.next_hop(network.node(1).ip) == centre.ip
    assert network.node(4).routing_table.next_hop(network.node(1).ip) == centre.ip
    assert centre.routing_table.next_hop(network.node(1).ip) == network.node(1).ip


@pytest.mark.parametrize("hops", [2, 3])
def test_relay_policy_reaches_only_the_interior_nodes(hops):
    """``relay_policy`` reaches the interior nodes only; the endpoints keep ``policy``."""
    sim = Simulator(seed=54)
    endpoints, relays = broadcast_aggregation(), delayed_broadcast_aggregation()
    network = build_linear_chain(sim, hops=hops, policy=endpoints, relay_policy=relays)
    assert endpoints != relays
    assert [node.policy for node in network.nodes] == (
        [endpoints] + [relays] * (hops - 1) + [endpoints])
    # Without a relay policy every node runs the chain's policy.
    plain = build_linear_chain(sim, hops=hops, policy=endpoints)
    assert [node.policy for node in plain.nodes] == [endpoints] * (hops + 1)


def test_hydra_profile_defaults_match_paper_table1():
    assert [round(r.data_rate_mbps, 2) for r in HYDRA_SISO_RATES][:4] == [0.65, 1.3, 1.95, 2.6]
    assert TX_POWER_DBM == pytest.approx(8.9, abs=0.2)  # 7.7 mW
    sim = Simulator(seed=55)
    channel = WirelessChannel(sim)
    default = Node(sim, channel, index=1)
    assert default.mac.unicast_rate is HYDRA_BASE_RATE
    assert default.mac.broadcast_rate is HYDRA_BASE_RATE  # follows the unicast rate
    pinned = Node(sim, channel, index=2, unicast_rate_mbps=2.6, broadcast_rate_mbps=0.65)
    assert pinned.mac.unicast_rate.data_rate_mbps == 2.6
    assert pinned.mac.broadcast_rate.data_rate_mbps == 0.65


@pytest.mark.parametrize("unicast_rate_mbps", [None, 2.6])
def test_builders_apply_the_broadcast_rate(unicast_rate_mbps):
    """A pinned broadcast rate reaches every MAC, with or without a unicast rate."""
    rates = {"unicast_rate_mbps": unicast_rate_mbps, "broadcast_rate_mbps": 1.3}
    sim = Simulator(seed=55)
    chain = build_linear_chain(sim, hops=2, policy=broadcast_aggregation(), **rates)
    star = build_star(sim, policy=broadcast_aggregation(), **rates)
    network = Network(sim, policy=broadcast_aggregation(), **rates)
    mobile = [network.add_node((2.5 * i, 0.0)) for i in range(2)]
    unicast = 0.65 if unicast_rate_mbps is None else unicast_rate_mbps
    for node in chain.nodes + star.nodes + mobile:
        assert node.mac.unicast_rate.data_rate_mbps == pytest.approx(unicast)
        assert node.mac.broadcast_rate.data_rate_mbps == pytest.approx(1.3)


# ---------------------------------------------------------------------------
# CBR / sink over the stack
# ---------------------------------------------------------------------------

def test_cbr_source_and_sink_measure_goodput():
    sim = Simulator(seed=56)
    network = build_linear_chain(sim, hops=2, policy=unicast_aggregation(),
                                 unicast_rate_mbps=1.3)
    sink = UdpSink(network.node(3))
    source = CbrSource(network.node(1), network.node(3).ip, interval=0.05)
    source.start()
    sim.run(until=5.0)
    assert sink.packets_received > 50
    assert sink.throughput_mbps(0.0, 5.0) > 0.1
    # One datagram per interval: 100 over the 5 s run.
    assert source.packets_sent == pytest.approx(5.0 / 0.05, abs=1)


def test_saturating_source_fills_the_pipe():
    sim = Simulator(seed=57)
    network = build_linear_chain(sim, hops=2, policy=unicast_aggregation(),
                                 unicast_rate_mbps=0.65)
    sink = UdpSink(network.node(3))
    source = CbrSource.saturating(network.node(1), network.node(3).ip,
                                  link_rate_bps=mbps(0.65))
    source.start(0.001)
    sim.run(until=10.0)
    throughput = sink.throughput_mbps(0.0, 10.0)
    # A 2-hop path at 0.65 Mbps PHY rate yields roughly a quarter of the PHY rate.
    assert 0.15 < throughput < 0.45
    # Queues must have built up at the source for aggregation to engage.
    assert network.node(1).mac_stats.average_subframes_per_frame > 1.5


def test_cbr_validation():
    sim = Simulator(seed=58)
    network = build_linear_chain(sim, hops=1, policy=no_aggregation())
    with pytest.raises(ConfigurationError):
        CbrSource(network.node(1), network.node(2).ip, interval=0.0)
    with pytest.raises(ConfigurationError):
        CbrSource(network.node(1), network.node(2).ip, payload_bytes=0, local_port=9100)


# ---------------------------------------------------------------------------
# File transfer over the stack
# ---------------------------------------------------------------------------

def test_file_transfer_completes_and_reports_throughput():
    sim = Simulator(seed=59)
    network = build_linear_chain(sim, hops=2, policy=broadcast_aggregation(),
                                 unicast_rate_mbps=1.3)
    sender, receiver = run_file_transfer_pair(network.node(1), network.node(3),
                                              file_bytes=60_000)
    sim.run(until=60.0)
    assert receiver.complete
    assert receiver.bytes_received >= 60_000
    assert receiver.throughput_mbps(0.0) > 0.1
    # Every byte and the FIN acknowledged: the sender waits for the peer's FIN.
    assert sender.connection.state is TcpState.FIN_WAIT_2


def test_classified_acks_flow_through_relay_broadcast_queue():
    """The relay forwards TCP ACKs via its broadcast queue when BA is enabled."""
    sim = Simulator(seed=60)
    network = build_linear_chain(sim, hops=2, policy=broadcast_aggregation(),
                                 unicast_rate_mbps=1.3)
    _, receiver = run_file_transfer_pair(network.node(1), network.node(3), file_bytes=60_000)
    sim.run(until=60.0)
    relay = network.node(2)
    assert receiver.complete
    assert relay.mac_stats.classified_ack_subframes_sent > 10
    assert relay.mac_stats.broadcast_subframes_sent > 10


def test_na_ua_ba_throughput_ordering_2hop():
    """The paper's headline qualitative result: NA < UA < BA."""
    throughputs = {}
    for name, policy in (("NA", no_aggregation()), ("UA", unicast_aggregation()),
                         ("BA", broadcast_aggregation())):
        sim = Simulator(seed=61)
        network = build_linear_chain(sim, hops=2, policy=policy, unicast_rate_mbps=2.6)
        _, receiver = run_file_transfer_pair(network.node(1), network.node(3),
                                             file_bytes=100_000)
        sim.run(until=120.0)
        assert receiver.complete
        throughputs[name] = receiver.throughput_mbps(0.0)
    assert throughputs["NA"] < throughputs["UA"] < throughputs["BA"]
