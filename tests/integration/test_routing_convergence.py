"""Routing properties on random connected topologies, DSDV and AODV.

The protocol-agnostic harness lives in ``tests/helpers/routing.py``; this
module instantiates it for both dynamic control planes:

* **DSDV (proactive)**: on *any* connected topology, within a bounded number
  of advertisement periods after motion stops, every node holds a route to
  every other node that is **loop-free** (following next hops reaches the
  destination without revisiting a node) and has the **shortest hop count**
  (equal to the BFS distance on the connectivity graph induced by the
  decodability range).
* **AODV (reactive)**: after a demand-driven warm-up — one probe packet per
  requested pair, staggered so discoveries do not collide — every requested
  connected pair holds a **loop-free route that reaches its destination**.
  On-demand routes follow whichever RREQ copy won the flood, so shortest-path
  metrics are not part of the reactive property.

Random placements are drawn per seed from a dedicated RNG, rejected until
connected, and checked pair-exhaustively.  A second DSDV test exercises the
"motion stops" clause literally: nodes roam first, then freeze, and the
property must hold on the frozen topology.
"""

from __future__ import annotations

import random

import pytest

from helpers.routing import (
    ambiguous,
    assert_routes_loop_free_and_reach,
    assert_routes_loop_free_and_shortest,
    bfs_distances,
    connected_placement,
    connectivity,
)
from repro.core.policies import broadcast_aggregation
from repro.mobility.models import MobilityModel, RandomWaypoint
from repro.net.dynamic_routing import DsdvConfig
from repro.net.on_demand import AodvConfig
from repro.sim.simulator import Simulator
from repro.topology.network import Network

FAST_DSDV = DsdvConfig(hello_interval=0.4, advertise_interval=1.2)

#: Long active-route lifetime: the reactive property is about discovery
#: correctness, so warmed-up routes must not expire before the assertions.
FAST_AODV = AodvConfig(hello_interval=0.4, active_route_lifetime=120.0)

#: Advertisement periods within which DSDV convergence must complete: enough
#: for initial HELLO discovery plus metric-by-metric propagation across the
#: diameter, with slack for lost updates (they contend with nothing here).
CONVERGENCE_PERIODS = 8

#: Spacing between AODV warm-up probes; generous enough that an
#: expanding-ring escalation for one pair finishes before the next begins.
PROBE_SPACING_S = 0.15
#: When the first AODV probe goes out, and how long the control plane runs
#: after the last one so that late discoveries can still complete.
AODV_WARM_UP_START_S = 1.0
AODV_DISCOVERY_SLACK_S = 3.0


class _RoamThenPark(MobilityModel):
    """Follows ``roam`` (bound to this model's stream) until ``until``, then
    stands on ``slot``."""

    def __init__(self, roam: MobilityModel, until: float, slot) -> None:
        super().__init__()
        self._roam, self._until, self._slot = roam, until, slot

    def _on_bound(self) -> None:
        self._roam.bind(self._rng, self._origin, self._start_time)

    def position_at(self, time):
        return self._roam.position_at(time) if time < self._until else self._slot


def _random_network(protocol: str, seed: int):
    """A random connected placement running the given control plane.

    The returned horizon bounds the run: DSDV's convergence bound, or for
    AODV the warm-up of every ordered pair plus time for late discoveries to
    complete.
    """
    placement_rng = random.Random(1000 + seed)
    node_count = placement_rng.choice([4, 5, 6])
    positions = connected_placement(placement_rng, node_count, area_m=24.0)
    if protocol == "dsdv":
        config = FAST_DSDV
        horizon = CONVERGENCE_PERIODS * FAST_DSDV.advertise_interval
    else:
        config = FAST_AODV
        pairs = node_count * (node_count - 1)
        horizon = AODV_WARM_UP_START_S + pairs * PROBE_SPACING_S + AODV_DISCOVERY_SLACK_S
    sim = Simulator(seed=seed)
    network = Network(sim, policy=broadcast_aggregation(), routing=config)
    for position in positions:
        network.add_node(position)
    return sim, network, positions, horizon


def _warm_up_on_demand(sim, network, pairs, start: float) -> float:
    """Send one staggered probe datagram per requested pair; return the end time."""
    nodes = network.nodes
    sockets = {i: node.udp.bind(9100) for i, node in enumerate(nodes)}
    for offset, (source_index, dest_index) in enumerate(pairs):
        sim.schedule_at(start + offset * PROBE_SPACING_S,
                        sockets[source_index].send_to,
                        nodes[dest_index].ip, 9100, 16)
    return start + len(pairs) * PROBE_SPACING_S


@pytest.mark.parametrize("protocol", ["dsdv", "aodv"])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_random_connected_topologies_yield_loop_free_routes(protocol, seed):
    sim, network, positions, horizon = _random_network(protocol, seed)
    if protocol == "dsdv":
        # Proactive: converges on its own within the bounded horizon.
        sim.run(until=horizon)
        assert_routes_loop_free_and_shortest(network, positions)
        return
    # Reactive: routes exist only on demand, so request every ordered pair
    # (all are connected — the placement is) and assert each one routes.
    node_count = len(network)
    pairs = [(i, j) for i in range(node_count) for j in range(node_count)
             if i != j]
    probes_done = _warm_up_on_demand(sim, network, pairs, start=AODV_WARM_UP_START_S)
    assert horizon == probes_done + AODV_DISCOVERY_SLACK_S
    sim.run(until=horizon)
    routers = [node.router for node in network.nodes]
    assert sum(router.discoveries_failed for router in routers) == 0
    assert_routes_loop_free_and_reach(network, pairs)


def test_convergence_after_motion_stops():
    # Endpoints pinned 26 m apart; three relays roam (scrambling routes and
    # sequence numbers), then stop on clean chain slots: 6.5 m neighbor
    # links (reliable), 13 m next-nearest (undecodable).  Whatever state the
    # roaming phase left behind, the chain must converge within the bounded
    # number of advertisement periods after motion stops.
    roam_time = 6.0
    chain_slots = ((6.5, 0.0), (13.0, 0.0), (19.5, 0.0))
    sim = Simulator(seed=7)
    network = Network(sim, policy=broadcast_aggregation(), routing=FAST_DSDV)
    network.add_node((0.0, 0.0))
    network.add_node((26.0, 0.0))
    area = (0.0, -8.0, 26.0, 8.0)
    for slot in chain_slots:
        roam = RandomWaypoint(area=area, speed_range=(4.0, 4.0))
        network.add_node(slot, _RoamThenPark(roam, roam_time, slot))
    sim.run(until=roam_time)

    # Motion has stopped: every relay stands on its chain slot, away from
    # where it roamed.
    relays = network.nodes[2:]
    frozen = [node.phy.position_at(sim.now) for node in network.nodes]
    assert all(node.phy.position_at(roam_time / 2) != position
               for node, position in zip(relays, frozen[2:]))
    assert frozen[2:] == list(chain_slots)
    assert not ambiguous(frozen)
    assert len(bfs_distances(connectivity(frozen), 0)) == len(frozen)

    # The control plane runs on, carrying whatever the roaming left in its
    # tables, and reconverges on the frozen topology.
    deadline = sim.now + CONVERGENCE_PERIODS * FAST_DSDV.advertise_interval
    sim.run(until=deadline)
    assert_routes_loop_free_and_shortest(network, frozen)
