"""Wireless channel: propagation models and the shared broadcast medium.

The paper's experiments place all nodes within carrier-sense range of each
other (Section 5), at a spacing of roughly 2.5 m, with transmit power chosen
so adjacent nodes see about 25 dB of SNR.  The default propagation constants
in :func:`repro.channel.propagation.hydra_indoor_propagation` reproduce that
operating point.
"""

from repro.channel.propagation import (
    FreeSpacePathLoss,
    LinkAwarePropagationModel,
    LogDistancePathLoss,
    LogNormalShadowing,
    PropagationModel,
    hydra_indoor_propagation,
)
from repro.channel.medium import WirelessChannel

__all__ = [
    "PropagationModel",
    "LinkAwarePropagationModel",
    "FreeSpacePathLoss",
    "LogDistancePathLoss",
    "LogNormalShadowing",
    "hydra_indoor_propagation",
    "WirelessChannel",
]
