"""Topology: :class:`~repro.topology.network.Network`, the one scenario builder.

A network builds every node, stationary or carrying a :mod:`repro.mobility`
model, from the settings it was given; the paper's linear chains and star
(:mod:`repro.topology.builders`) and the city layouts
(:mod:`repro.topology.city`) are a few lines on top of it.
"""

from repro.topology.network import Network
from repro.topology.builders import build_linear_chain, build_star

__all__ = ["Network", "build_linear_chain", "build_star"]
