"""The objects each built node keeps alive for the cyclic garbage collector.

City-scale runs build 2,000 nodes, and every full collection walks every
object they keep, so a node's object count is part of its cost.  This
pins the count by type: building N more nodes through
:meth:`~repro.topology.network.Network.add_node` must add exactly the
listed number of GC-tracked objects of each type per node, and less than
one object per node of every other type together.

Two kinds of object are left out, because their count does not depend on
the node alone: instance dicts (Python 3.10 tracks one per object that has
a ``__dict__``, later versions do not) and tuples (a collection untracks
the tuples that hold only untracked values), and the interned
:class:`~repro.mac.addresses.MacAddress` and
:class:`~repro.net.address.IpAddress` (one per address a process names,
so a node whose index an earlier network used adds none).
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.core.policies import broadcast_aggregation
from repro.net.on_demand import AodvConfig
from repro.sim.simulator import Simulator
from repro.topology.network import Network

NODES = 50

#: Tracked objects per static-route node, by type name: the node, its six
#: layer objects, the MAC's queues, aggregator, duplicate filter and
#: statistics, the forwarding statistics, the MAC's and the PHY's random
#: streams, the MAC's four timers (access, response, DBA flush and NAV),
#: the bound methods the timers, metrics collectors and receive callbacks
#: hold, and two lists.
STATIC = {
    "Node": 1, "Phy": 1, "AggregatingMac": 1, "ForwardingEngine": 1, "RoutingTable": 1,
    "UdpLayer": 1, "TcpLayer": 1, "TransmitQueues": 1, "Aggregator": 1,
    "DuplicateDetector": 1, "MacStatistics": 1, "ForwardingStatistics": 1,
    "Random": 2, "Timer": 4, "method": 7, "list": 2,
}
#: An AODV node adds its router and neighbor discovery, their timers, the
#: discovery's random stream and first scheduled beacon, and what they bind.
AODV = {
    **STATIC, "AodvRouter": 1, "NeighborDiscovery": 1, "PeriodicTimer": 1, "Event": 1,
    "Random": 3, "Timer": 7, "method": 17, "list": 4,
}
#: Counted elsewhere or not per node; see the module docstring.
UNCOUNTED = {"dict", "tuple", "MacAddress", "IpAddress"}


def _census() -> Counter:
    gc.collect()
    return Counter(type(obj).__qualname__ for obj in gc.get_objects())


def _tracked_per_node(routing) -> dict:
    network = Network(Simulator(seed=1), broadcast_aggregation(), routing=routing)
    # The first node builds what the network shares (the grid, the
    # simulator's stream table, ...); it is not counted.
    network.add_node((0.0, 0.0))
    before = _census()
    for index in range(1, NODES + 1):
        network.add_node((2.5 * index, 0.0))
    after = _census()
    after.subtract(before)
    return {name: count / NODES for name, count in after.items()
            if count and name not in UNCOUNTED}


@pytest.mark.parametrize("routing, expected", [(None, STATIC), (AodvConfig(), AODV)],
                         ids=["static", "aodv"])
def test_each_node_keeps_a_fixed_set_of_tracked_objects(routing, expected):
    per_node = _tracked_per_node(routing)
    assert {name: per_node.get(name, 0.0) for name in expected} == expected
    others = {name: count for name, count in per_node.items() if name not in expected}
    assert sum(others.values()) < 1.0, others
