"""HELLO-based neighbor discovery: beacons, liveness, expiry and jitter.

Discovery beacons from the moment it is built; a test silences a neighbor
by moving it out of range (``helpers.mobility.Jumps``).
"""

from __future__ import annotations

import random
from typing import Optional

import pytest

from helpers.mobility import Jumps
from repro.core.policies import broadcast_aggregation
from repro.errors import ConfigurationError, SimulationError
from repro.net.discovery import HELLO_PROTOCOL, JITTER_FRACTION, NeighborDiscovery, rejitter
from repro.sim.simulator import Simulator
from repro.sim.timer import PeriodicTimer
from repro.topology.network import Network

#: Far beyond the ~12.5 m decodability limit.
OUT_OF_RANGE_M = 100.0


def _two_node_scenario(seed: int = 1, spacing: float = 5.0,
                       hello_interval: float = 0.5, b_silent_at: Optional[float] = None):
    """Nodes a and b running discovery; b leaves range at ``b_silent_at``."""
    sim = Simulator(seed=seed)
    network = Network(sim, policy=broadcast_aggregation())
    a = network.add_node((0.0, 0.0))
    model = None
    if b_silent_at is not None:
        model = Jumps(((b_silent_at, (OUT_OF_RANGE_M, 0.0)),))
    b = network.add_node((spacing, 0.0), model)
    da = NeighborDiscovery(sim, a.network, hello_interval, name="a")
    db = NeighborDiscovery(sim, b.network, hello_interval, name="b")
    return sim, network, da, db


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
        node = Network(sim, policy=broadcast_aggregation()).add_node((0.0, 0.0))
        with pytest.raises(ConfigurationError, match="hello_interval"):
            NeighborDiscovery(sim, node.network, **kwargs)


class TestNeighborLiveness:
    def test_neighbors_discover_each_other(self):
        sim, _, da, db = _two_node_scenario()
        sim.run(until=3.0)
        assert len(da) == 1 and len(db) == 1
        assert da.neighbor_up_events == 1
        assert da.hellos_sent > 0
        assert da.hellos_received > 0

    def test_out_of_range_nodes_never_become_neighbors(self):
        # 20 m is far beyond the ~12.5 m decodability limit.
        sim, _, da, db = _two_node_scenario(spacing=20.0)
        sim.run(until=3.0)
        assert len(da) == 0
        assert len(db) == 0

    def test_silent_neighbor_expires_after_hold_time(self):
        sim, _, da, db = _two_node_scenario(hello_interval=0.5, b_silent_at=2.0)
        sim.run(until=2.0)
        assert len(da) == 1
        down_events = []
        da.on_neighbor_down(down_events.append)
        # b falls silent: from t=2.0 it stands out of range.
        sim.run(until=2.0 + 3 * da.hold_time)
        assert len(da) == 0
        assert down_events == [db.address]
        assert da.neighbor_down_events == 1

    def test_heard_refreshes_liveness_without_a_beacon(self):
        sim, _, da, db = _two_node_scenario(hello_interval=0.5, b_silent_at=2.0)
        sim.run(until=2.0)
        # b is out of range from now on.  Keep refreshing a's record of b by hand (as the DSDV router does
        # when updates arrive): b must never expire.
        for _ in range(10):
            sim.run(until=sim.now + da.hold_time / 2.0)
            da.heard(db.address)
        assert len(da) == 1

    def test_own_address_is_never_a_neighbor(self):
        sim, _, da, _ = _two_node_scenario()
        da.heard(da.address)
        assert len(da) == 0


class TestBeaconBehaviour:
    def test_beacons_are_jittered_not_lockstep(self):
        sim, _, _, _ = _two_node_scenario(hello_interval=0.5)
        sent_at = []
        sim.tracer.add_listener(
            lambda record: sent_at.append(record.time)
            if record.source == "node1.mac" and record.event == "enqueue"
            and record.fields["packet"].ip.protocol == HELLO_PROTOCOL else None)
        sim.run(until=5.0)
        gaps = [later - earlier for earlier, later in zip(sent_at, sent_at[1:])]
        assert len(gaps) >= 8
        # Each gap is re-drawn around the nominal interval, so no two match.
        low, high = 0.5 * (1.0 - JITTER_FRACTION), 0.5 * (1.0 + JITTER_FRACTION)
        assert all(low - 1e-12 <= gap <= high + 1e-12 for gap in gaps)
        assert len(set(gaps)) == len(gaps)

    def test_rejitter_refuses_a_period_that_is_not_positive(self):
        timer = PeriodicTimer(Simulator(seed=1), 1.0, lambda: None)
        rng = random.Random(1)
        for base in (-1.0, 0.0, float("nan")):
            with pytest.raises(SimulationError):
                rejitter(timer, base, rng)
        assert timer.period == 1.0

    def test_hellos_count_as_routing_overhead_in_mac_stats(self):
        sim, network, _, _ = _two_node_scenario()
        sim.run(until=3.0)
        stats = network.node(1).mac_stats
        assert stats.routing_subframes_sent > 0
        assert stats.routing_bytes_sent > 0
        assert stats.routing_overhead_fraction == pytest.approx(1.0)  # only control ran

    def test_same_seed_same_beacon_schedule(self):
        def signature(seed):
            sim, _, da, db = _two_node_scenario(seed=seed)
            sim.run(until=4.0)
            return (da.hellos_sent, da.hellos_received,
                    db.hellos_sent, db.hellos_received, sim.events_processed)

        assert signature(1) == signature(1)
        assert signature(1) != signature(2)
