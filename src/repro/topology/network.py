"""A scenario container: simulator, channel and nodes."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.channel.medium import WirelessChannel
from repro.errors import ConfigurationError
from repro.net.routing import NeighborTable
from repro.node.node import Node
from repro.sim.simulator import Simulator


class Network:
    """A set of nodes sharing one wireless channel (one collision domain)."""

    def __init__(self, sim: Simulator, channel: WirelessChannel,
                 neighbors: Optional[NeighborTable] = None) -> None:
        self.sim = sim
        self.channel = channel
        self.neighbors = neighbors or NeighborTable()
        self._nodes: Dict[int, Node] = {}

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Register a node and its link-layer address."""
        if node.index in self._nodes:
            raise ConfigurationError(f"node index {node.index} already exists")
        self._nodes[node.index] = node
        self.neighbors.add(node.ip, node.mac_address)
        return node

    def node(self, index: int) -> Node:
        """Return node ``index`` (1-based, as in the paper's figures)."""
        try:
            return self._nodes[index]
        except KeyError:
            raise ConfigurationError(f"no node with index {index}") from None

    @property
    def nodes(self) -> List[Node]:
        """All nodes, ordered by index."""
        return [self._nodes[i] for i in sorted(self._nodes)]

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run the underlying simulator."""
        return self.sim.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Network nodes={len(self._nodes)}>"
