"""DSDV routing: table semantics, sequence-number rules, convergence, repair."""

from __future__ import annotations

import pytest

from repro.core.policies import broadcast_aggregation
from repro.errors import ConfigurationError, RoutingError
from repro.net.address import IpAddress
from repro.net.discovery import HOLD_INTERVALS
from repro.net.dynamic_routing import DsdvConfig
from repro.net.routing import (
    INFINITE_METRIC,
    STATIC_SEQUENCE,
    RouteEntry,
    RoutingTable,
)
from repro.sim.simulator import Simulator
from repro.topology.network import Network

from helpers.mobility import Jumps
from helpers.routing import has_valid_route

A = IpAddress("10.0.0.1")
B = IpAddress("10.0.0.2")
C = IpAddress("10.0.0.3")

FAST_DSDV = DsdvConfig(hello_interval=0.4, advertise_interval=1.2)

#: Silence after which FAST_DSDV's neighbor discovery declares a link down.
FAST_HOLD_TIME = HOLD_INTERVALS * FAST_DSDV.hello_interval


def _entry(dest, via, metric=1, seq=0):
    return RouteEntry(IpAddress(dest), IpAddress(via), metric, seq)


class TestDynamicRoutingTable:
    """The one :class:`RoutingTable` as the control planes drive it."""

    def test_implements_the_static_interface(self):
        table = RoutingTable()
        table.add_route(B, C)
        assert table.next_hop(B) == C
        assert has_valid_route(table, B)
        assert not has_valid_route(table, A)
        assert len(table) == 1
        assert [(e.destination, e.next_hop) for e in table.entries()] == [(B, C)]

    def test_missing_route_raises_routing_error(self):
        with pytest.raises(RoutingError):
            RoutingTable().next_hop(B)

    def test_withdrawn_route_behaves_like_no_route(self):
        table = RoutingTable()
        table.install(_entry(B, C, metric=INFINITE_METRIC, seq=3))
        assert not has_valid_route(table, B)
        assert len(table) == 0
        with pytest.raises(RoutingError):
            table.next_hop(B)
        # ... but the entry (and its break sequence number) is retained.
        assert table.entry_for(B).sequence == 3

    def test_protocol_entries_supersede_static_injections(self):
        table = RoutingTable()
        table.add_route(B, C)
        assert table.entry_for(B).sequence == STATIC_SEQUENCE < 0
        table.install(_entry(B, A, metric=2, seq=0))
        assert table.next_hop(B) == A

    def test_entries_iterate_in_sorted_destination_order(self):
        table = RoutingTable()
        table.install(_entry(C, A))
        table.install(_entry(B, A))
        assert [e.destination for e in table.entries()] == [B, C]


#: Where a node jumps to break its links: out of everyone's range.
FAR_AWAY = (100.0, 100.0)


def _chain_scenario(node_count=3, spacing=8.0, seed=1, config=FAST_DSDV,
                    models=None):
    """A DSDV chain; ``models`` maps a node's index (from 1) to its model."""
    sim = Simulator(seed=seed)
    network = Network(sim, policy=broadcast_aggregation(), routing=config)
    for i in range(node_count):
        network.add_node((i * spacing, 0.0), (models or {}).get(i + 1))
    return sim, network


class TestDsdvProtocol:
    def test_static_route_installers_are_rejected_under_dsdv(self):
        sim, network = _chain_scenario()
        with pytest.raises(ConfigurationError):
            network.connect_chain(1, 2, 3)
        with pytest.raises(ConfigurationError):
            network.connect_pair(1, 2)

    def test_router_starts_when_its_node_is_built(self):
        # No start call: a DSDV node built at t=0 sends its first HELLO
        # within one hello_interval and its first advertisement within one
        # advertise_interval.
        sim = Simulator(seed=1)
        network = Network(sim, policy=broadcast_aggregation(), routing=FAST_DSDV)
        router = network.add_node((0.0, 0.0)).router
        assert sim.pending_events == 2
        sim.run(until=FAST_DSDV.hello_interval)
        assert router.discovery.hellos_sent >= 1
        sim.run(until=FAST_DSDV.advertise_interval)
        assert router.updates_sent >= 1

    def test_routed_network_queue_never_drains(self):
        # Beacons run until the horizon, so every routed run needs one.
        sim, network = _chain_scenario()
        sim.run(until=10.0)
        assert sim.pending_events > 0
        sent = [node.router.discovery.hellos_sent for node in network.nodes]
        sim.run(until=10.0 + 2 * FAST_DSDV.hello_interval)
        assert all(node.router.discovery.hellos_sent > before
                   for node, before in zip(network.nodes, sent))

    def test_unknown_routing_mode_rejected(self):
        sim = Simulator(seed=1)
        network = Network(sim, policy=broadcast_aggregation(), routing="olsr")
        with pytest.raises(ConfigurationError, match="DsdvConfig or an AodvConfig"):
            network.add_node((0.0, 0.0))

    def test_chain_converges_to_shortest_hop_count_routes(self):
        sim, network = _chain_scenario(node_count=4)
        sim.run(until=12.0)
        nodes = network.nodes
        # End nodes see 3 destinations, each via their single physical neighbor.
        first, last = nodes[0], nodes[-1]
        assert len(first.routing_table) == 3
        assert first.routing_table.next_hop(last.ip) == nodes[1].ip
        assert first.router.table.entry_for(last.ip).metric == 3
        # The middle nodes route each direction out of the matching interface.
        middle = nodes[1]
        assert middle.routing_table.next_hop(first.ip) == first.ip
        assert middle.routing_table.next_hop(last.ip) == nodes[2].ip

    def test_own_destination_never_enters_the_table(self):
        sim, network = _chain_scenario()
        sim.run(until=10.0)
        for node in network.nodes:
            assert node.router.table.entry_for(node.ip) is None

    def test_forwarding_works_end_to_end_over_discovered_routes(self):
        from repro.apps.cbr import CbrSource, UdpSink

        sim, network = _chain_scenario(node_count=3)
        sink = UdpSink(network.node(3))
        source = CbrSource(network.node(1), network.node(3).ip,
                           interval=0.1, payload_bytes=200)
        source.start(4.0)  # after convergence
        sim.run(until=12.0)
        assert sink.packets_received > 0
        assert sink.packets_received >= source.packets_sent * 0.9

    def test_control_plane_counted_in_mac_stats(self):
        sim, network = _chain_scenario()
        sim.run(until=8.0)
        stats = network.node(2).mac_stats
        assert stats.routing_subframes_sent > 0
        assert 0.0 < stats.routing_overhead_fraction <= 1.0
        assert stats.routing_bytes_sent <= stats.payload_bytes_sent

    def test_sequence_numbers_advertised_are_even(self):
        sim, network = _chain_scenario()
        sim.run(until=10.0)
        # Every adopted route's sequence number originated at the destination
        # as an even number; no link ever broke in this static chain.
        for node in network.nodes:
            for entry in node.router.table.entries():
                assert entry.valid
                assert entry.sequence % 2 == 0
                assert entry.sequence >= 0

    def test_link_break_marks_routes_with_odd_sequence_and_infinite_metric(self):
        # At t=6 the middle relay jumps out of range; nothing else connects
        # 1 and 3.
        sim, network = _chain_scenario(node_count=3,
                                       models={2: Jumps(((6.0, FAR_AWAY),))})
        sim.run(until=6.0)
        first = network.node(1)
        last = network.node(3)
        assert has_valid_route(first.routing_table, last.ip)
        sim.run(until=6.0 + 4 * FAST_HOLD_TIME)
        entry = first.router.table.entry_for(network.node(2).ip)
        assert entry is not None and not entry.valid
        assert entry.metric == INFINITE_METRIC
        assert entry.sequence % 2 == 1
        assert not has_valid_route(first.routing_table, last.ip)
        assert first.router.route_breaks > 0

    def test_route_repairs_after_relay_returns(self):
        # The relay jumps away at t=6 and back once the break has spread.
        back = 6.0 + 4 * FAST_HOLD_TIME
        trip = Jumps(((6.0, FAR_AWAY), (back, (8.0, 0.0))))
        sim, network = _chain_scenario(node_count=3, models={2: trip})
        sim.run(until=back)
        first = network.node(1)
        last = network.node(3)
        assert not has_valid_route(first.routing_table, last.ip)
        sim.run(until=sim.now + 6 * FAST_DSDV.advertise_interval)
        assert has_valid_route(first.routing_table, last.ip)
        assert first.router.repair_latencies(last.ip)

    def test_static_routes_on_a_dsdv_node_are_never_advertised(self):
        # A hand-installed route shares the table with DSDV's routes: it
        # forwards on its own node, but carries STATIC_SEQUENCE and so never
        # enters an advertisement.
        sim, network = _chain_scenario(node_count=3)
        nodes = network.nodes
        elsewhere = IpAddress("10.0.0.99")
        nodes[0].add_route(elsewhere, nodes[1].ip)
        sim.run(until=10.0)
        assert [has_valid_route(node.routing_table, elsewhere) for node in nodes] == [
            True, False, False]
        assert nodes[0].routing_table.entry_for(elsewhere).sequence == STATIC_SEQUENCE
        # DSDV itself converged around the static entry.
        assert nodes[0].routing_table.next_hop(nodes[2].ip) == nodes[1].ip

    def test_summary_is_flat(self):
        sim, network = _chain_scenario()
        sim.run(until=6.0)
        summary = network.node(1).router.summary()
        assert summary["updates_sent"] > 0
        assert summary["valid_routes"] == 2
        assert summary["neighbors"] == 1

    def test_same_seed_runs_are_identical_different_seeds_diverge(self):
        def signature(seed):
            sim, network = _chain_scenario(node_count=4, seed=seed)
            sim.run(until=10.0)
            return repr([
                (node.router.summary(),
                 [str(e) for e in node.router.table.entries()])
                for node in network.nodes
            ]) + f"|{sim.events_processed}"

        assert signature(1) == signature(1)
        assert signature(1) != signature(2)


class TestDsdvConfig:
    """Both settings can arrive from a campaign ``--set`` override as any
    Python literal; each must be a positive, finite number of seconds."""

    @pytest.mark.parametrize("kwargs", [
        {"advertise_interval": 0.0},
        {"hello_interval": 0.0},
        {"advertise_interval": -3.0},
        {"hello_interval": -1.0},
        {"advertise_interval": float("inf")},
        {"hello_interval": float("nan")},
        {"advertise_interval": "3.0"},
        {"hello_interval": True},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
            DsdvConfig(**kwargs)

    def test_whole_second_intervals_accepted(self):
        # ``--set advertise_interval=3`` arrives as an int.
        config = DsdvConfig(hello_interval=1, advertise_interval=3)
        assert (config.hello_interval, config.advertise_interval) == (1, 3)
