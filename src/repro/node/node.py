"""A node: PHY, MAC, network layer and transport layers wired together.

This mirrors the Hydra block diagram (Figure 3 of the paper): the radio/PHY
at the bottom, the Click-based MAC and routing in the middle and the Linux
protocol stack (here: the ``repro`` UDP/TCP implementations) on top.

Every node runs at the prototype's one operating point, fixed by Table 1 of
the paper and the experimental setup of Section 5: 1 MHz of bandwidth in the
2.4 GHz band, 7.7 mW transmit power giving ~25 dB SNR at the 2.5 m node
spacing (:mod:`repro.phy.device`), SISO data rates of 0.65–6.5 Mbps of
which the experiments pin one of the lowest four
(:data:`~repro.phy.rates.HYDRA_SISO_RATES`), cyclic-delay-diversity MIMO (a
single spatial stream), DCF with RTS/CTS (:mod:`repro.mac.timing`), and a
maximum aggregation size of 5 KB chosen from the Figure 7 sweep
(:data:`~repro.core.policies.DEFAULT_MAX_AGGREGATE_BYTES`).  What a node
varies per run is its data rates and its aggregation policy.

Beyond the paper's stationary testbed, a node may be built with a
:mod:`repro.mobility` model (``Node(..., mobility=model)``): its PHY binds
the model and takes every position from it (see :class:`~repro.phy.device.Phy`).

Every node forwards through one :class:`~repro.net.routing.RoutingTable`,
and its routing is one value: ``routing=None`` (the default) keeps the
paper's statically installed routes, while
``routing=DsdvConfig(...)`` or ``routing=AodvConfig(...)`` additionally runs
a dynamic control plane that maintains the same table, either proactively
by HELLO-based neighbor discovery plus DSDV advertisements
(:mod:`repro.net.dynamic_routing`) or reactively by AODV-style on-demand
route discovery (:mod:`repro.net.on_demand`).  The control plane starts as
the node is built and runs until the run's horizon.  Scenarios build their
nodes through :meth:`repro.topology.network.Network.add_node`, which hands
every node the network's channel, neighbor table and settings.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.channel.medium import WirelessChannel
from repro.core.policies import AggregationPolicy
from repro.errors import ConfigurationError
from repro.mac.addresses import MacAddress
from repro.mac.dcf import AggregatingMac
from repro.mobility.models import MobilityModel
from repro.net.address import IpAddress
from repro.net.dynamic_routing import DsdvConfig, DsdvRouter
from repro.net.on_demand import AodvConfig, AodvRouter
from repro.net.routing import ForwardingEngine, NeighborTable, RoutingTable
from repro.phy.device import Phy
from repro.phy.rates import HYDRA_BASE_RATE, rate_for_mbps
from repro.sim.simulator import Simulator
from repro.transport.tcp.layer import TcpLayer
from repro.transport.udp import UdpLayer

#: A node's routing value: ``None`` for static routes, or the config of the
#: dynamic control plane to run.
RoutingConfig = Optional[Union[DsdvConfig, AodvConfig]]


class Node:
    """A complete wireless node.

    ``neighbors`` is the address-resolution table the node shares with the
    rest of its network.  ``unicast_rate_mbps=None`` pins the base rate
    (0.65 Mbps), and ``broadcast_rate_mbps=None`` sends the broadcast
    portion at the unicast rate.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: WirelessChannel,
        index: int,
        position: Tuple[float, float],
        policy: AggregationPolicy,
        neighbors: NeighborTable,
        unicast_rate_mbps: Optional[float] = None,
        broadcast_rate_mbps: Optional[float] = None,
        routing: RoutingConfig = None,
        mobility: Optional[MobilityModel] = None,
    ) -> None:
        if routing is not None and not isinstance(routing, (DsdvConfig, AodvConfig)):
            raise ConfigurationError(
                f"routing must be None (static routes), a DsdvConfig or an "
                f"AodvConfig; got {routing!r}")
        self.sim = sim
        self.channel = channel
        self.index = index
        self.policy = policy

        self.ip = IpAddress.host(index)
        self.mac_address = MacAddress.node(index)
        self.name = f"node{index}"

        # --- PHY -----------------------------------------------------------
        self.phy = Phy(sim, channel, position=position, name=f"{self.name}.phy",
                       mobility=mobility)

        # --- MAC -----------------------------------------------------------
        self.mac = AggregatingMac(
            sim, self.phy, self.mac_address,
            unicast_rate=(HYDRA_BASE_RATE if unicast_rate_mbps is None
                          else rate_for_mbps(unicast_rate_mbps)),
            broadcast_rate=(None if broadcast_rate_mbps is None
                            else rate_for_mbps(broadcast_rate_mbps)),
            policy=self.policy, name=f"{self.name}.mac")

        # --- network layer ---------------------------------------------------
        self.routing_table = RoutingTable()
        self.neighbors = neighbors
        self.network = ForwardingEngine(sim, self.mac, self.ip,
                                        routing_table=self.routing_table,
                                        neighbors=self.neighbors,
                                        name=f"{self.name}.net")
        # The dynamic control plane (None under static routing); it starts
        # beaconing as it is built and runs until the run's horizon.
        self.router: Optional[Union[DsdvRouter, AodvRouter]] = None
        if isinstance(routing, DsdvConfig):
            self.router = DsdvRouter(sim, self.network, self.routing_table,
                                     config=routing, name=f"{self.name}.dsdv")
        elif isinstance(routing, AodvConfig):
            self.router = AodvRouter(sim, self.network, self.routing_table,
                                     config=routing, name=f"{self.name}.aodv")

        # --- transport layers ------------------------------------------------
        self.udp = UdpLayer(sim, self.network, self.ip)
        self.tcp = TcpLayer(sim, self.network, self.ip)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def mac_stats(self):
        """The MAC statistics of this node (Tables 3-8 feed off these)."""
        return self.mac.stats

    def add_route(self, destination: IpAddress, next_hop: IpAddress) -> None:
        """Install a static route."""
        self.routing_table.add_route(destination, next_hop)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.index} ip={self.ip} mac={self.mac_address}>"
