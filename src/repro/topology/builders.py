"""Builders for the paper's topologies, on top of :class:`~repro.topology.network.Network`.

Section 5: 2-hop and 3-hop linear chains (Figure 5) and a star with two
2-hop TCP sessions through a central relay (Figure 6).  Node spacing is
roughly 2.5 m and every node is within carrier-sense range of every other
node, so routes are installed statically.

Node numbering follows the paper: in a linear chain node 1 is the TCP
server/UDP source and node N the client/sink; in the star, nodes 3 and 4 are
the servers, node 2 is the central relay and node 1 is the client.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.policies import AggregationPolicy
from repro.errors import ConfigurationError
from repro.sim.simulator import Simulator
from repro.topology.network import Network

#: Node spacing used in the paper's testbed (metres).
PAPER_NODE_SPACING_M = 2.5


def build_linear_chain(sim: Simulator, hops: int, policy: AggregationPolicy,
                       unicast_rate_mbps: Optional[float] = None,
                       broadcast_rate_mbps: Optional[float] = None,
                       relay_policy: Optional[AggregationPolicy] = None) -> Network:
    """Build the linear topology of Figure 5 with ``hops`` hops (``hops+1`` nodes).

    ``relay_policy`` goes to the interior nodes only (delayed broadcast
    aggregation on the relays, Figure 13 and Tables 3-4); by default every
    node uses ``policy``.
    """
    if hops < 1:
        raise ConfigurationError("a chain needs at least one hop")
    network = Network(sim, policy, unicast_rate_mbps, broadcast_rate_mbps)
    node_count = hops + 1
    for index in range(1, node_count + 1):
        is_relay = 1 < index < node_count
        network.add_node(((index - 1) * PAPER_NODE_SPACING_M, 0.0),
                         policy=relay_policy if is_relay else None)
    network.connect_chain(*range(1, node_count + 1))
    return network


def build_star(sim: Simulator, policy: AggregationPolicy,
               unicast_rate_mbps: Optional[float] = None,
               broadcast_rate_mbps: Optional[float] = None) -> Network:
    """Build the star topology of Figure 6.

    Four nodes: node 2 is the central relay; nodes 3 and 4 are TCP servers,
    node 1 is the client.  Both TCP sessions (3 → 1 and 4 → 1) traverse the
    relay, so at node 2 the TCP data frames share a unicast destination
    (node 1) while the reverse TCP ACKs are destined to two different servers
    — exactly the situation where broadcast aggregation helps and unicast-only
    aggregation cannot (Table 5).
    """
    network = Network(sim, policy, unicast_rate_mbps, broadcast_rate_mbps)
    spacing = PAPER_NODE_SPACING_M
    server_x = -spacing * math.cos(math.radians(30))
    server_y = spacing * math.sin(math.radians(30))
    network.add_node((spacing, 0.0))              # 1: client
    network.add_node((0.0, 0.0))                  # 2: central relay
    network.add_node((server_x, server_y))        # 3: server
    network.add_node((server_x, -server_y))       # 4: server

    centre = network.node(2)
    for leaf_index in (1, 3, 4):
        leaf = network.node(leaf_index)
        # Leaves reach everyone through the centre; the centre is adjacent to all.
        for other_index in (1, 2, 3, 4):
            if other_index == leaf_index:
                continue
            other = network.node(other_index)
            next_hop = other.ip if other_index == 2 else centre.ip
            leaf.add_route(other.ip, next_hop)
        centre.add_route(leaf.ip, leaf.ip)
    return network
