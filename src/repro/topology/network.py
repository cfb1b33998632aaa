"""The one scenario builder: a channel, the settings its nodes share, the nodes.

Every scenario is a :class:`Network`: the paper's chains and star
(:mod:`repro.topology.builders`), the mobile meshes and the city
(:mod:`repro.topology.city`).  It owns the
:class:`~repro.channel.medium.WirelessChannel` and one shared
:class:`~repro.net.routing.NeighborTable`, builds every node with
:meth:`Network.add_node` and installs static routes with
:meth:`Network.connect_chain` and :meth:`Network.connect_pair`.

Typical use::

    sim = Simulator(seed=seed)
    network = Network(sim, broadcast_aggregation(), shadowing_sigma_db=4.0)
    anchor = network.add_node((10.0, 10.0))                      # stationary
    rover = network.add_node((5.0, 5.0),
                             RandomWaypoint(area=(0, 0, 20, 20),
                                            speed_range=(2.0, 2.0)))
    network.connect_chain(anchor.index, rover.index)
    sim.run(until=duration)

A node's model is fixed when the node is built and is the only way the
node moves; nothing is scheduled on its behalf, so positions are computed
only when a link budget asks for one.  Nodes added without a model stay
where they are put, with identical link-budget floats, which is what lets
mobile scenarios coexist with bit-for-bit reproduction of the paper's
stationary experiments.  A channel holding any node with a model budgets
every node on every broadcast, at any size: its spatial index and cached
delivery plans serve static scenarios only.  With ``shadowing_sigma_db >
0`` each link's loss carries its own shadowing offset.

``routing`` is every node's routing value.  ``None`` (the default) keeps
statically installed routes.  ``routing=DsdvConfig(...)`` swaps them for the
proactive control plane of :mod:`repro.net.dynamic_routing`: every node runs
HELLO neighbor discovery plus DSDV advertisements, and multi-hop paths
repair themselves as nodes move.  ``routing=AodvConfig(...)`` runs the
reactive counterpart (:mod:`repro.net.on_demand`): no proactive
advertisements — routes are discovered by RREQ flooding the first time
traffic asks for them and kept alive only while data flows.  Either control
plane starts as its node is built and beacons until the run's horizon, so
a routed network's event queue never drains: bound every run with
``sim.run(until=...)``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.channel.medium import WirelessChannel
from repro.core.policies import AggregationPolicy
from repro.errors import ConfigurationError
from repro.mobility.models import MobilityModel
from repro.net.routing import NeighborTable
from repro.node.node import Node, RoutingConfig
from repro.sim.simulator import Simulator


class Network:
    """Nodes sharing one wireless channel, all built from the same settings.

    ``policy`` and the two rates go to every node; ``add_node(policy=...)``
    overrides the policy of one node.  ``shadowing_sigma_db`` goes to the
    channel and ``routing`` is every node's routing value.
    """

    def __init__(self, sim: Simulator, policy: AggregationPolicy,
                 unicast_rate_mbps: Optional[float] = None,
                 broadcast_rate_mbps: Optional[float] = None,
                 shadowing_sigma_db: float = 0.0,
                 routing: RoutingConfig = None) -> None:
        self.sim = sim
        self._policy = policy
        self._unicast_rate_mbps = unicast_rate_mbps
        self._broadcast_rate_mbps = broadcast_rate_mbps
        self._routing = routing
        self.channel = WirelessChannel(sim, shadowing_sigma_db)
        self.neighbors = NeighborTable()
        self._nodes: List[Node] = []

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def add_node(self, position: Tuple[float, float],
                 model: Optional[MobilityModel] = None,
                 policy: Optional[AggregationPolicy] = None) -> Node:
        """Build node ``len(self) + 1`` at ``position`` and register its address.

        ``model=None`` keeps the node stationary and ``policy=None`` gives it
        the network's policy.
        """
        node = Node(self.sim, self.channel, index=len(self._nodes) + 1,
                    position=position, policy=policy or self._policy,
                    unicast_rate_mbps=self._unicast_rate_mbps,
                    broadcast_rate_mbps=self._broadcast_rate_mbps,
                    neighbors=self.neighbors, routing=self._routing,
                    mobility=model)
        self._nodes.append(node)
        self.neighbors.add(node.ip, node.mac_address)
        return node

    def node(self, index: int) -> Node:
        """Return node ``index`` (1-based, as in the paper's figures)."""
        if not 1 <= index <= len(self._nodes):
            raise ConfigurationError(f"no node with index {index}")
        return self._nodes[index - 1]

    @property
    def nodes(self) -> List[Node]:
        """All nodes, ordered by index."""
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # Static routes
    # ------------------------------------------------------------------
    def connect_chain(self, *indices: int) -> None:
        """Install static chain routes along ``indices`` (in path order).

        Under static routing (``routing=None``) this keeps the paper's
        assumption: routes name the intended forwarding path, and mobility
        determines whether each hop is currently usable.  Under DSDV or AODV
        routes are discovered, so installing static ones is a configuration
        error.
        """
        self._require_static("connect_chain")
        nodes = [self.node(i) for i in indices]
        for position, node in enumerate(nodes):
            for target_position, target in enumerate(nodes):
                if target is node:
                    continue
                if target_position > position:
                    next_hop = nodes[position + 1]
                else:
                    next_hop = nodes[position - 1]
                node.add_route(target.ip, next_hop.ip)

    def connect_pair(self, a: int, b: int) -> None:
        """Install direct (single-hop) routes between two nodes."""
        self._require_static("connect_pair")
        node_a, node_b = self.node(a), self.node(b)
        node_a.add_route(node_b.ip, node_b.ip)
        node_b.add_route(node_a.ip, node_a.ip)

    def _require_static(self, operation: str) -> None:
        if self._routing is not None:
            raise ConfigurationError(
                f"{operation}() installs static routes, but this network uses "
                f"routing={self._routing!r}, which discovers routes by itself")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Network nodes={len(self._nodes)}>"


#: Factory deciding each grid slot's mobility:
#: ``factory(row, col, area) -> Optional[MobilityModel]``; ``area`` is the
#: grid's bounding box ``(x_min, y_min, x_max, y_max)``.
GridModelFactory = Callable[[int, int, Tuple[float, float, float, float]],
                            Optional[MobilityModel]]


def populate_grid(network: Network, grid_side: int, spacing_m: float,
                  model_factory: Optional[GridModelFactory] = None) -> List[Node]:
    """Add a ``grid_side`` × ``grid_side`` grid of nodes to ``network``.

    Nodes are added in row-major order (so node indices, and therefore all
    derived RNG streams, are deterministic); returns them in that order.
    Shared by the mesh-routing experiments (``mob03``, ``rt02``) so the grid
    geometry and mobility wiring cannot drift between them.
    """
    extent = (grid_side - 1) * spacing_m
    area = (0.0, 0.0, extent, extent)
    nodes: List[Node] = []
    for row in range(grid_side):
        for col in range(grid_side):
            model = model_factory(row, col, area) if model_factory else None
            nodes.append(network.add_node((col * spacing_m, row * spacing_m),
                                          model))
    return nodes
