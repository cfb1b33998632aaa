"""AODV on-demand routing: discovery, expanding ring, RERR, lifetimes, wiring."""

from __future__ import annotations

import pytest

from repro.apps.cbr import CbrSource, UdpSink
from repro.channel.medium import WirelessChannel
from repro.core.policies import broadcast_aggregation
from repro.errors import ConfigurationError, RoutingError
from repro.mac.stats import ROUTING_CONTROL_PROTOCOLS
from repro.net import on_demand
from repro.net.discovery import HOLD_INTERVALS
from repro.net.dynamic_routing import DsdvConfig
from repro.net.on_demand import AodvConfig, AodvRouter
from repro.net.routing import INFINITE_METRIC, RoutingTable
from repro.node.node import Node
from repro.obs.session import observe
from repro.sim.simulator import Simulator
from repro.topology.network import Network

from helpers.mobility import Jumps
from helpers.obs import audit_balanced, journey_events, trace_records
from helpers.routing import has_valid_route

FAST_AODV = AodvConfig(hello_interval=0.4, active_route_lifetime=30.0)

#: Silence after which FAST_AODV's neighbor discovery declares a link down.
FAST_HOLD_TIME = HOLD_INTERVALS * FAST_AODV.hello_interval


def _chain_scenario(node_count=3, spacing=8.0, seed=1, config=FAST_AODV,
                    models=None):
    """An AODV chain; ``models`` maps a node's index (from 1) to its model."""
    sim = Simulator(seed=seed)
    network = Network(sim, policy=broadcast_aggregation(), routing=config)
    for i in range(node_count):
        network.add_node((i * spacing, 0.0), (models or {}).get(i + 1))
    return sim, network


def _send_probe(network, source_index, dest_index, at, port=9100):
    """One UDP datagram from source to destination at time ``at``."""
    socket = network.node(source_index).udp.bind(port)
    network.sim.schedule_at(at, socket.send_to,
                            network.node(dest_index).ip, port, 32)
    return socket


class TestAodvConfig:
    """Both settings can arrive from a campaign ``--set`` override as any
    Python literal; each must be a positive, finite number of seconds."""

    @pytest.mark.parametrize("kwargs", [
        {"active_route_lifetime": 0.0},
        {"hello_interval": 0.0},
        {"active_route_lifetime": -6.0},
        {"hello_interval": -1.0},
        {"active_route_lifetime": float("inf")},
        {"hello_interval": float("inf")},
        {"active_route_lifetime": float("nan")},
        {"active_route_lifetime": "6.0"},
        {"hello_interval": None},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
            AodvConfig(**kwargs)


class TestRoutingModeValidation:
    """Regression: a ``routing=`` value that is neither ``None`` nor a
    routing config (such as a mode string) fails fast when the node is built,
    with a ValueError naming the valid values — never later as an attribute
    error on a router that was silently not built."""

    def _channel(self):
        sim = Simulator(seed=1)
        return sim, WirelessChannel(sim)

    def test_node_rejects_unknown_mode_with_value_error(self):
        sim, channel = self._channel()
        with pytest.raises(ValueError) as excinfo:
            Node(sim, channel, index=1, routing="dsdv")
        for valid in ("None", "DsdvConfig", "AodvConfig"):
            assert valid in str(excinfo.value)

    def test_node_rejection_is_also_a_configuration_error(self):
        sim, channel = self._channel()
        with pytest.raises(ConfigurationError):
            Node(sim, channel, index=1, routing="olsr")

    def test_scenario_rejects_unknown_mode_with_value_error(self):
        sim = Simulator(seed=1)
        network = Network(sim, policy=broadcast_aggregation(), routing="aodv")
        with pytest.raises(ValueError, match="DsdvConfig or an AodvConfig"):
            network.add_node((0.0, 0.0))

    def test_mismatched_routing_config_rejected(self):
        # The config class itself (a forgotten call) is not a config.
        sim, channel = self._channel()
        with pytest.raises(ConfigurationError, match="DsdvConfig"):
            Node(sim, channel, index=1, routing=DsdvConfig)

    def test_all_valid_modes_construct(self):
        for routing in (None, DsdvConfig(), AodvConfig()):
            sim = Simulator(seed=1)
            node = Node(sim, WirelessChannel(sim), index=1, routing=routing)
            if routing is None:
                assert node.router is None
            else:  # the router of the kind the config selects, holding it
                assert node.router.config is routing

    def test_aodv_node_wiring(self):
        sim, channel = self._channel()
        node = Node(sim, channel, index=1, routing=AodvConfig())
        assert isinstance(node.router, AodvRouter)
        assert isinstance(node.routing_table, RoutingTable)
        assert node.router.table is node.routing_table

    def test_router_starts_when_its_node_is_built(self):
        # No start call: an AODV node built at t=0 sends its first HELLO
        # within one hello_interval, while discovery waits for demand.
        sim, channel = self._channel()
        router = Node(sim, channel, index=1, routing=FAST_AODV).router
        assert sim.pending_events == 1
        sim.run(until=FAST_AODV.hello_interval)
        assert router.discovery.hellos_sent >= 1
        assert router.rreqs_sent == 0

    def test_static_node_has_no_router_or_hooks(self):
        sim, channel = self._channel()
        node = Node(sim, channel, index=1)
        assert node.router is None
        assert isinstance(node.routing_table, RoutingTable)
        assert node.network._no_route_handler is None


class TestRouteDiscovery:
    def test_demand_driven_chain_discovery_delivers(self):
        sim, network = _chain_scenario(node_count=3)
        sink = UdpSink(network.node(3))
        source = CbrSource(network.node(1), network.node(3).ip,
                           interval=0.1, payload_bytes=200)
        source.start(1.0)
        sim.run(until=10.0)
        assert sink.packets_received >= source.packets_sent * 0.9
        origin = network.node(1)
        entry = origin.router.table.entry_for(network.node(3).ip)
        assert entry is not None and entry.valid
        assert entry.metric == 2
        assert entry.next_hop == network.node(2).ip
        assert origin.router.discoveries_completed == 1
        # Demand-driven: no proactive advertisements exist, so a node nobody
        # asked about installs no multi-hop routes anywhere.
        assert origin.network.stats.no_route_buffered >= 1
        assert origin.network.stats.no_route_drops == 0

    def test_relay_learns_both_directions_from_one_discovery(self):
        sim, network = _chain_scenario(node_count=3)
        _send_probe(network, 1, 3, at=1.0)
        sim.run(until=5.0)
        relay = network.node(2)
        # Reverse route (from the RREQ) and forward route (from the RREP).
        for index in (1, 3):
            entry = relay.router.table.entry_for(network.node(index).ip)
            assert entry is not None and entry.valid and entry.metric == 1

    def test_expanding_ring_escalates_ttl(self):
        sim, network = _chain_scenario(node_count=4)
        _send_probe(network, 1, 4, at=1.0)
        sim.run(until=8.0)
        origin = network.node(1).router
        # TTL 1 cannot reach a 3-hop destination: at least one retry happened
        # and the route was found on a wider ring.
        assert origin.rreqs_sent >= 2
        assert origin.discoveries_completed == 1
        entry = origin.table.entry_for(network.node(4).ip)
        assert entry is not None and entry.valid and entry.metric == 3

    def test_duplicate_rreqs_suppressed_by_request_id(self):
        # Diamond: two relays both hear the origin's RREQ; the destination
        # hears two copies but must reply only once.
        sim = Simulator(seed=3)
        network = Network(sim, policy=broadcast_aggregation(), routing=FAST_AODV)
        network.add_node((0.0, 0.0))      # 1: origin
        network.add_node((6.0, 4.0))      # 2: relay up
        network.add_node((6.0, -4.0))     # 3: relay down
        network.add_node((12.0, 0.0))     # 4: destination
        _send_probe(network, 1, 4, at=1.0)
        sim.run(until=6.0)
        destination = network.node(4).router
        assert destination.rreps_sent == 1
        assert destination.duplicate_rreqs_ignored >= 1
        assert network.node(1).router.discoveries_completed == 1

    def test_same_seed_runs_identical_different_seeds_diverge(self):
        def signature(seed):
            sim, network = _chain_scenario(node_count=4, seed=seed)
            sink = UdpSink(network.node(4))
            source = CbrSource(network.node(1),
                               network.node(4).ip,
                               interval=0.15, payload_bytes=120)
            source.start(1.0)
            sim.run(until=10.0)
            return repr([
                (node.router.summary(),
                 [str(e) for e in node.router.table.entries()])
                for node in network.nodes
            ]) + f"|{sink.packets_received}|{sim.events_processed}"

        assert signature(1) == signature(1)
        assert signature(1) != signature(2)

    def test_jitter_streams_are_built_by_rebroadcasting_relays_only(self):
        """A router builds its ``aodv.<name>`` stream at its first draw, the
        jitter of a RREQ rebroadcast; the label alone fixes the seed, so the
        draws match an eagerly built stream's (the golden digests pin that)."""
        sim = Simulator(seed=1)
        network = Network(sim, policy=broadcast_aggregation(), routing=FAST_AODV)
        for row in range(3):
            for col in range(3):
                network.add_node((col * 8.0, row * 8.0))
        sink = UdpSink(network.node(9))
        source = CbrSource(network.node(1), network.node(9).ip,
                           interval=0.1, payload_bytes=200)
        source.start(1.0)

        def with_stream():
            return {node.router.name for node in network.nodes
                    if f"aodv.{node.router.name}" in sim.random}

        sim.run(until=0.99)  # HELLO beacons only: nobody has rebroadcast
        assert with_stream() == set()
        sim.run(until=6.0)
        assert sink.packets_received > 0
        forwarders = {node.router.name for node in network.nodes
                      if node.router.rreqs_forwarded > 0}
        assert with_stream() == forwarders
        # The origin and the destination never rebroadcast the flood.
        assert network.node(1).router.name not in forwarders
        assert network.node(9).router.name not in forwarders


def _unreachable_pair():
    """Two AODV nodes far beyond decodability of each other."""
    sim = Simulator(seed=1)
    network = Network(sim, policy=broadcast_aggregation(),
                      routing=AodvConfig(hello_interval=0.4))
    network.add_node((0.0, 0.0))
    network.add_node((200.0, 0.0))
    return sim, network


@pytest.fixture
def exhausting_ring(monkeypatch):
    """A short expanding ring: TTL 1, then 3, then one retry at TTL 3."""
    monkeypatch.setattr(on_demand, "RING_MAX_TTL", 3)
    monkeypatch.setattr(on_demand, "RREQ_RETRIES", 1)
    monkeypatch.setattr(on_demand, "RING_TIMEOUT_PER_TTL", 0.1)


@pytest.fixture
def small_buffer(monkeypatch):
    """Discovery that never gives up within the test horizon, with a
    3-packet buffer, so a steady source overflows it."""
    monkeypatch.setattr(on_demand, "RING_MAX_TTL", 2)
    monkeypatch.setattr(on_demand, "RREQ_RETRIES", 20)
    monkeypatch.setattr(on_demand, "RING_TIMEOUT_PER_TTL", 5.0)
    monkeypatch.setattr(on_demand, "BUFFER_PACKETS", 3)


class TestUnreachableDestination:
    def test_exhausted_ring_search_raises_the_same_routing_error(self, exhausting_ring):
        # Two nodes far beyond decodability: the expanding-ring search must
        # exhaust and the destination must surface exactly like a missing
        # static route — a RoutingError from next_hop(), a drop from send().
        sim, network = _unreachable_pair()
        _send_probe(network, 1, 2, at=1.0)
        sim.run(until=8.0)
        origin = network.node(1)
        router = origin.router
        assert router.discoveries_started == 1
        assert router.discoveries_failed == 1
        assert router.discoveries_completed == 0
        assert router.buffered_packets_dropped == 1
        # ring 1, 3, then RREQ_RETRIES=1 extra attempts at the max TTL.
        assert router.rreqs_sent >= 3
        unreachable = network.node(2).ip
        with pytest.raises(RoutingError) as aodv_error:
            origin.routing_table.next_hop(unreachable)
        with pytest.raises(RoutingError) as static_error:
            RoutingTable().next_hop(unreachable)
        assert type(aodv_error.value) is type(static_error.value)

    def test_buffer_bound_drops_oldest(self, small_buffer):
        sim, network = _unreachable_pair()
        source = CbrSource(network.node(1), network.node(2).ip,
                           interval=0.2, payload_bytes=64)
        source.start(1.0)
        sim.run(until=4.0)
        router = network.node(1).router
        assert router.buffered_packets_dropped > 0
        assert len(router._pending[network.node(2).ip].buffered) == 3

    def test_exhausted_discovery_is_traced_and_drops_on_the_journey(self, exhausting_ring):
        with observe(trace=True, metrics=True, journey=True) as session:
            sim, network = _unreachable_pair()
            _send_probe(network, 1, 2, at=1.0)
            sim.run(until=8.0)
        assert trace_records(session, "aodv", "discovery_failed") == [
            {"dest": str(network.node(2).ip), "dropped": 1}]
        drops = [key for key in journey_events(session) if key[1] == "drop"]
        assert drops == [("net", "drop", "rreq_exhausted", "node1")]
        assert audit_balanced(session)

    def test_buffer_overflow_drops_on_the_journey(self, small_buffer):
        with observe(trace=True, metrics=True, journey=True) as session:
            sim, network = _unreachable_pair()
            source = CbrSource(network.node(1),
                               network.node(2).ip,
                               interval=0.2, payload_bytes=64)
            source.start(1.0)
            sim.run(until=4.0)
        router = network.node(1).router
        drops = [key for key in journey_events(session) if key[1] == "drop"]
        assert drops == ([("net", "drop", "buffer_full", "node1")]
                         * router.buffered_packets_dropped)
        assert audit_balanced(session)



#: Where the chain's destination jumps to break its link: out of range.
FAR_AWAY = (500.0, 0.0)
#: When it jumps, after the route is up and data flows.
BREAK_AT = 6.0


class TestLinkBreakRerr:
    def test_rerr_invalidates_stale_routes_upstream(self):
        sim, network = _chain_scenario(node_count=3,
                                       models={3: Jumps(((BREAK_AT, FAR_AWAY),))})
        sink = UdpSink(network.node(3))
        source = CbrSource(network.node(1), network.node(3).ip,
                           interval=0.2, payload_bytes=120)
        source.start(1.0)
        sim.run(until=BREAK_AT)
        first, relay, last = (network.node(i) for i in (1, 2, 3))
        assert has_valid_route(first.routing_table, last.ip)
        broken_entry = first.router.table.entry_for(last.ip)
        # The destination is out of range from now on; the relay's HELLO
        # hold expires, it invalidates its route to node 3 and broadcasts a
        # RERR, and the source — which was routing through the relay —
        # invalidates too.
        sim.run(until=BREAK_AT + 4 * FAST_HOLD_TIME)
        assert relay.router.rerrs_sent >= 1
        assert first.router.rerrs_received >= 1
        assert first.router.route_breaks >= 1
        stale = first.router.table.entry_for(last.ip)
        assert stale is not None and not stale.valid
        assert stale.metric == INFINITE_METRIC
        assert stale.sequence > broken_entry.sequence
        assert not has_valid_route(first.routing_table, last.ip)

    def test_rerr_broadcast_is_traced(self):
        with observe(trace=True, metrics=True, journey=True) as session:
            sim, network = _chain_scenario(
                node_count=3, models={3: Jumps(((BREAK_AT, FAR_AWAY),))})
            UdpSink(network.node(3))
            source = CbrSource(network.node(1), network.node(3).ip,
                               interval=0.2, payload_bytes=120)
            source.start(1.0)
            sim.run(until=BREAK_AT + 4 * FAST_HOLD_TIME)
        records = trace_records(session, "aodv", "rerr_tx")
        assert network.node(2).router.rerrs_sent >= 1
        assert len(records) == sum(node.router.rerrs_sent for node in network.nodes)
        assert {"destinations": 1} in records
        assert audit_balanced(session)

    def test_route_rediscovered_after_break_heals(self):
        heal_at = BREAK_AT + 4 * FAST_HOLD_TIME
        trip = Jumps(((BREAK_AT, FAR_AWAY), (heal_at, (16.0, 0.0))))
        sim, network = _chain_scenario(node_count=3, models={3: trip})
        sink = UdpSink(network.node(3))
        source = CbrSource(network.node(1), network.node(3).ip,
                           interval=0.2, payload_bytes=120)
        source.start(1.0)
        sim.run(until=BREAK_AT)
        received_before = sink.packets_received
        sim.run(until=heal_at)
        assert not has_valid_route(network.node(1).routing_table, network.node(3).ip)
        sim.run(until=sim.now + 10.0)
        # Traffic is still flowing, so the next datagram re-discovers.
        assert has_valid_route(network.node(1).routing_table, network.node(3).ip)
        assert sink.packets_received > received_before
        assert network.node(1).router.discoveries_completed >= 2


class TestActiveRouteLifetime:
    def _pair(self, lifetime, seed=1):
        config = AodvConfig(hello_interval=0.4, active_route_lifetime=lifetime)
        sim = Simulator(seed=seed)
        network = Network(sim, policy=broadcast_aggregation(), routing=config)
        network.add_node((0.0, 0.0))
        network.add_node((6.0, 0.0))
        return sim, network

    def test_idle_route_expires(self):
        sim, network = self._pair(lifetime=1.0)
        _send_probe(network, 1, 2, at=1.0)
        sim.run(until=8.0)
        router = network.node(1).router
        assert router.route_expirations >= 1
        entry = router.table.entry_for(network.node(2).ip)
        assert entry is not None and not entry.valid

    def test_forwarded_data_refreshes_the_route(self):
        sim, network = self._pair(lifetime=1.0)
        source = CbrSource(network.node(1), network.node(2).ip,
                           interval=0.3, payload_bytes=64)
        source.start(1.0)
        sim.run(until=8.0)
        router = network.node(1).router
        # Data every 0.3 s against a 1.0 s lifetime: never expires.
        entry = router.table.entry_for(network.node(2).ip)
        assert entry is not None and entry.valid
        assert router.discoveries_started == 1

    def test_seen_request_ids_are_pruned_after_the_discovery_window(self, monkeypatch):
        monkeypatch.setattr(on_demand, "PATH_DISCOVERY_TIME", 1.0)
        config = AodvConfig(hello_interval=0.4, active_route_lifetime=1.0)
        sim = Simulator(seed=1)
        network = Network(sim, policy=broadcast_aggregation(), routing=config)
        network.add_node((0.0, 0.0))
        network.add_node((6.0, 0.0))
        source = CbrSource(network.node(1), network.node(2).ip,
                           interval=2.5, payload_bytes=64)
        source.start(1.0)
        sim.run(until=12.0)
        router = network.node(1).router
        # Every sparse packet rediscovered, but only ids inside the
        # 1 s discovery window survive the prune.
        assert router.discoveries_started >= 3
        assert len(router._seen_requests) <= 2

    def test_sparse_traffic_rediscovers_every_packet(self):
        sim, network = self._pair(lifetime=1.0)
        source = CbrSource(network.node(1), network.node(2).ip,
                           interval=2.5, payload_bytes=64)
        source.start(1.0)
        sim.run(until=11.0)
        router = network.node(1).router
        # Packet spacing (2.5 s) exceeds the lifetime (1 s): each datagram
        # finds its cached route expired and pays a fresh discovery.
        assert router.discoveries_started >= 3
        assert router.route_expirations >= 3


class TestControlPlaneAccounting:
    def test_aodv_is_a_routing_control_protocol(self):
        assert "aodv" in ROUTING_CONTROL_PROTOCOLS

    def test_control_bytes_counted_in_mac_stats(self):
        sim, network = _chain_scenario(node_count=3)
        _send_probe(network, 1, 3, at=1.0)
        sim.run(until=8.0)
        stats = network.node(2).mac_stats
        assert stats.routing_subframes_sent > 0
        assert 0.0 < stats.routing_overhead_fraction <= 1.0
        assert stats.routing_bytes_sent <= stats.payload_bytes_sent

    def test_summary_is_flat(self):
        sim, network = _chain_scenario(node_count=3)
        _send_probe(network, 1, 3, at=1.0)
        sim.run(until=8.0)
        summary = network.node(1).router.summary()
        assert summary["rreqs_sent"] >= 1
        assert summary["discoveries_completed"] == 1
        assert summary["neighbors"] == 1
        assert summary["hellos_sent"] > 0

    def test_static_route_installers_are_rejected_under_aodv(self):
        sim, network = _chain_scenario()
        with pytest.raises(ConfigurationError):
            network.connect_chain(1, 2, 3)
        with pytest.raises(ConfigurationError):
            network.connect_pair(1, 2)
