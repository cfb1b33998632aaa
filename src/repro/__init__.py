"""repro — a reproduction of "Improving the Performance of Multi-hop Wireless
Networks using Frame Aggregation and Broadcast for TCP ACKs" (Kim, Wright,
Nettles — ACM CoNEXT 2008).

The package contains a from-scratch discrete-event simulation of the Hydra
prototype's wireless stack (PHY, shared channel, 802.11 DCF MAC, static
routing, UDP and NewReno TCP) plus the paper's contribution: transmit-time
frame aggregation of unicast and broadcast subframes with cross-layer
classification of pure TCP ACKs as link-level broadcasts.

Quickstart::

    from repro import Simulator, build_linear_chain, broadcast_aggregation
    from repro.apps import run_file_transfer_pair

    sim = Simulator(seed=1)
    network = build_linear_chain(sim, hops=2, policy=broadcast_aggregation(),
                                 unicast_rate_mbps=1.3)
    sender, receiver = run_file_transfer_pair(network.node(1), network.node(3))
    sim.run(until=60.0)
    print(receiver.throughput_mbps(transfer_start=0.0), "Mbps")
"""

from repro.sim import Simulator
from repro.core import (
    AggregationPolicy,
    Aggregator,
    broadcast_aggregation,
    delayed_broadcast_aggregation,
    no_aggregation,
    unicast_aggregation,
)
from repro.phy import Phy, PhyFrame, PhyRate
from repro.channel import WirelessChannel
from repro.mac import AggregatingMac, MacAddress
from repro.net import ForwardingEngine, IpAddress, Packet, RoutingTable
from repro.transport import TcpConnection, TcpLayer, UdpLayer
from repro.node import Node
from repro.topology import Network, build_linear_chain, build_star
from repro.stats import ExperimentResult, Series, TableResult

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # simulation engine
    "Simulator",
    # core contribution
    "AggregationPolicy",
    "Aggregator",
    "no_aggregation",
    "unicast_aggregation",
    "broadcast_aggregation",
    "delayed_broadcast_aggregation",
    # PHY / channel
    "Phy",
    "PhyFrame",
    "PhyRate",
    "WirelessChannel",
    # MAC
    "AggregatingMac",
    "MacAddress",
    # network / transport
    "Packet",
    "IpAddress",
    "RoutingTable",
    "ForwardingEngine",
    "TcpLayer",
    "TcpConnection",
    "UdpLayer",
    # nodes and topologies
    "Node",
    "Network",
    "build_linear_chain",
    "build_star",
    # results
    "ExperimentResult",
    "Series",
    "TableResult",
]
