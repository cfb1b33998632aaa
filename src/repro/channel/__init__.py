"""Wireless channel: propagation and the shared broadcast medium.

The paper's experiments place all nodes within carrier-sense range of each
other (Section 5), at a spacing of roughly 2.5 m, with transmit power chosen
so adjacent nodes see about 25 dB of SNR.  Every channel uses the one
indoor log-distance curve of :mod:`repro.channel.propagation` that
reproduces that operating point; ``WirelessChannel(sim,
shadowing_sigma_db=...)`` adds per-link log-normal shadowing on top.
"""

from repro.channel.medium import WirelessChannel

__all__ = ["WirelessChannel"]
