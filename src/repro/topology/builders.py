"""Builders for the paper's topologies.

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
from typing import Dict, Optional, Sequence, Union

from repro.channel.medium import WirelessChannel
from repro.core.policies import AggregationPolicy
from repro.errors import ConfigurationError
from repro.node.node import Node
from repro.sim.simulator import Simulator
from repro.topology.network import Network

#: Node spacing used in the paper's testbed (metres).
PAPER_NODE_SPACING_M = 2.5

PolicySpec = Union[AggregationPolicy, Dict[int, AggregationPolicy]]


def _policy_for(policy: PolicySpec, index: int) -> AggregationPolicy:
    if isinstance(policy, dict):
        try:
            return policy[index]
        except KeyError:
            raise ConfigurationError(f"no aggregation policy given for node {index}") from None
    return policy


def _install_chain_routes(network: Network, indices: Sequence[int]) -> None:
    """Static routes along a chain given in path order."""
    nodes = [network.node(i) for i in indices]
    for position, node in enumerate(nodes):
        for target_position, target in enumerate(nodes):
            if target is node:
                continue
            if target_position > position:
                next_hop = nodes[position + 1]
            else:
                next_hop = nodes[position - 1]
            node.add_route(target.ip, next_hop.ip)


def build_linear_chain(sim: Simulator, hops: int, policy: PolicySpec,
                       unicast_rate_mbps: Optional[float] = None,
                       broadcast_rate_mbps: Optional[float] = None) -> Network:
    """Build the linear topology of Figure 5 with ``hops`` hops (``hops+1`` nodes)."""
    if hops < 1:
        raise ConfigurationError("a chain needs at least one hop")
    channel = WirelessChannel(sim)
    network = Network(sim, channel)

    node_count = hops + 1
    for index in range(1, node_count + 1):
        position = ((index - 1) * PAPER_NODE_SPACING_M, 0.0)
        node = Node(sim, channel, index=index, position=position,
                    policy=_policy_for(policy, index),
                    unicast_rate_mbps=unicast_rate_mbps,
                    broadcast_rate_mbps=broadcast_rate_mbps,
                    neighbors=network.neighbors)
        network.add_node(node)

    _install_chain_routes(network, list(range(1, node_count + 1)))
    return network


def build_star(sim: Simulator, policy: PolicySpec,
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
    channel = WirelessChannel(sim)
    network = Network(sim, channel)

    spacing = PAPER_NODE_SPACING_M
    positions = {
        2: (0.0, 0.0),                                   # central relay
        1: (spacing, 0.0),                               # client
        3: (-spacing * math.cos(math.radians(30)), spacing * math.sin(math.radians(30))),
        4: (-spacing * math.cos(math.radians(30)), -spacing * math.sin(math.radians(30))),
    }
    for index in (1, 2, 3, 4):
        node = Node(sim, channel, index=index, position=positions[index],
                    policy=_policy_for(policy, index),
                    unicast_rate_mbps=unicast_rate_mbps,
                    broadcast_rate_mbps=broadcast_rate_mbps,
                    neighbors=network.neighbors)
        network.add_node(node)

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
