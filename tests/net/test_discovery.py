"""HELLO-based neighbor discovery: beacons, liveness, expiry and jitter."""

from __future__ import annotations

import pytest

from repro.core.policies import broadcast_aggregation
from repro.errors import ConfigurationError
from repro.net.discovery import NeighborDiscovery
from repro.sim.simulator import Simulator
from repro.topology.mobile import MobileScenario


def _two_node_scenario(seed: int = 1, spacing: float = 5.0, stop_time: float = 30.0,
                       hello_interval: float = 0.5):
    sim = Simulator(seed=seed)
    scenario = MobileScenario(sim, policy=broadcast_aggregation(),
                              stop_time=stop_time)
    a = scenario.add_node((0.0, 0.0))
    b = scenario.add_node((spacing, 0.0))
    da = NeighborDiscovery(sim, a.network, hello_interval, name="a")
    db = NeighborDiscovery(sim, b.network, hello_interval, name="b")
    return sim, scenario, da, db


class TestHelloConfig:
    """HELLO's one setting, ``hello_interval``, and the hold time it implies."""

    def test_hold_time_is_intervals_times_interval(self):
        _, _, da, _ = _two_node_scenario(hello_interval=0.4)
        assert da.hold_time == pytest.approx(1.4)

    @pytest.mark.parametrize("kwargs", [
        {"hello_interval": 0.0},
        {"hello_interval": -0.5},
        {"hello_interval": float("inf")},
        {"hello_interval": float("nan")},
        {"hello_interval": "0.5"},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        sim = Simulator(seed=1)
        node = MobileScenario(sim, policy=broadcast_aggregation()).add_node((0.0, 0.0))
        with pytest.raises(ConfigurationError, match="hello_interval"):
            NeighborDiscovery(sim, node.network, **kwargs)


class TestNeighborLiveness:
    def test_neighbors_discover_each_other(self):
        sim, _, da, db = _two_node_scenario()
        da.start()
        db.start()
        sim.run(until=3.0)
        assert len(da) == 1 and len(db) == 1
        assert da.neighbor_up_events == 1
        assert da.hellos_sent > 0
        assert da.hellos_received > 0

    def test_out_of_range_nodes_never_become_neighbors(self):
        # 20 m is far beyond the ~12.5 m decodability limit.
        sim, _, da, db = _two_node_scenario(spacing=20.0)
        da.start()
        db.start()
        sim.run(until=3.0)
        assert len(da) == 0
        assert len(db) == 0

    def test_silent_neighbor_expires_after_hold_time(self):
        sim, _, da, db = _two_node_scenario(hello_interval=0.5)
        da.start()
        db.start()
        sim.run(until=2.0)
        assert len(da) == 1
        down_events = []
        da.on_neighbor_down(down_events.append)
        db.stop()  # b falls silent
        sim.run(until=2.0 + 3 * da.hold_time)
        assert len(da) == 0
        assert down_events == [db.address]
        assert da.neighbor_down_events == 1

    def test_silent_neighbor_expires_after_a_restart(self):
        # Regression: stop() cancels the expiry timer; start() must re-arm
        # it, or a neighbor heard before the stop that never speaks again
        # stays listed forever (and routes through it are never withdrawn).
        sim, _, da, db = _two_node_scenario(hello_interval=0.5)
        da.start()
        db.start()
        sim.run(until=3.0)
        assert len(da) == 1
        da.stop()
        db.stop()
        da.start()  # only a comes back; b stays silent
        sim.run(until=30.0)
        assert len(da) == 0
        assert da.neighbor_down_events == 1

    def test_heard_refreshes_liveness_without_a_beacon(self):
        sim, _, da, db = _two_node_scenario(hello_interval=0.5)
        da.start()
        db.start()
        sim.run(until=2.0)
        db.stop()
        # Keep refreshing a's record of b by hand (as the DSDV router does
        # when updates arrive): b must never expire.
        for _ in range(10):
            sim.run(until=sim.now + da.hold_time / 2.0)
            da.heard(db.address)
        assert len(da) == 1

    def test_own_address_is_never_a_neighbor(self):
        sim, _, da, _ = _two_node_scenario()
        da.heard(da.address)
        assert len(da) == 0

    def test_stop_makes_liveness_processing_inert(self):
        # A packet still in flight when the protocol stops must not re-arm
        # the expiry timer: no link-down events (or pending events at all)
        # may surface after stop().
        sim, _, da, db = _two_node_scenario(hello_interval=0.5)
        da.start()
        db.start()
        sim.run(until=2.0)
        da.stop()
        db.stop()
        da.heard(db.address)  # late arrival after the stop
        assert not da._expiry.running
        down_events = []
        da.on_neighbor_down(down_events.append)
        sim.run(until=2.0 + 5 * da.hold_time)
        assert down_events == []
        assert da.neighbor_down_events == 0


class TestBeaconBehaviour:
    def test_beacons_are_jittered_not_lockstep(self):
        sim, _, da, _ = _two_node_scenario()
        da.start()
        first_period = da._beacon.period
        sim.run(until=5.0)
        # The re-jittered period must actually move around the nominal value.
        assert da._beacon.period != first_period

    def test_stop_time_bounds_beaconing(self):
        sim, _, da, db = _two_node_scenario()
        da.start(stop_time=2.0)
        db.start(stop_time=2.0)
        sim.run(until=10.0)
        sent_at_stop = da.hellos_sent
        sim.run(until=20.0)
        assert da.hellos_sent == sent_at_stop
        assert sim.pending_events == 0  # no beacon or sweep is left armed

    def test_hellos_count_as_routing_overhead_in_mac_stats(self):
        sim, scenario, da, db = _two_node_scenario()
        da.start()
        db.start()
        sim.run(until=3.0)
        stats = scenario.network.node(1).mac_stats
        assert stats.routing_subframes_sent > 0
        assert stats.routing_bytes_sent > 0
        assert stats.routing_overhead_fraction == pytest.approx(1.0)  # only control ran

    def test_same_seed_same_beacon_schedule(self):
        def signature(seed):
            sim, _, da, db = _two_node_scenario(seed=seed)
            da.start()
            db.start()
            sim.run(until=4.0)
            return (da.hellos_sent, da.hellos_received,
                    db.hellos_sent, db.hellos_received, sim.events_processed)

        assert signature(1) == signature(1)
        assert signature(1) != signature(2)
