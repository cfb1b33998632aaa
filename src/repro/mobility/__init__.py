"""Node mobility: deterministic, seedable position processes.

The paper's evaluation is entirely stationary (Section 5: fixed indoor nodes
at ~25 dB SNR).  This package extends the reproduction beyond that setup:
a model given to a PHY when it is built (``Phy(..., mobility=model)``) is
that PHY's one source of position, answered analytically for any time and
never advanced by scheduler events; the PHY/channel layer evaluates
propagation against those exact positions at transmission start (see
``Phy.position_at`` and :class:`~repro.channel.medium.WirelessChannel`);
and a channel built with ``shadowing_sigma_db > 0`` gives each link its own
log-normal shadowing offset, so motion changes loss rather than just
distance.

See :class:`repro.topology.network.Network` for the scenario builder and the
``mob01``/``mob02`` modules in :mod:`repro.experiments` for ready-made
mobile-scenario experiments.
"""

from repro.mobility.models import (
    CircularOrbit,
    MobilityModel,
    RandomWaypoint,
    TrajectoryLeg,
)

__all__ = [
    "CircularOrbit",
    "MobilityModel",
    "RandomWaypoint",
    "TrajectoryLeg",
]
