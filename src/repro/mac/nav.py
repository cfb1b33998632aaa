"""Virtual carrier sensing (the network allocation vector).

Overheard RTS/CTS frames and the duration field of the first unicast subframe
of an aggregate (Section 4.2.1) set the NAV; the DCF treats the medium as
busy until :attr:`NetworkAllocationVector.until`, in addition to physical
carrier sensing, and resumes its backoff through ``on_expire`` when the
reservation ends.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.simulator import Simulator
from repro.sim.timer import Timer


class NetworkAllocationVector:
    """Tracks the time until which the medium is virtually reserved."""

    __slots__ = ("_sim", "until", "_on_expire", "_expiry")

    def __init__(self, sim: Simulator, on_expire: Callable[[], None]) -> None:
        self._sim = sim
        #: Absolute time at which the current reservation ends.
        self.until = 0.0
        self._on_expire = on_expire
        self._expiry = Timer(sim, self._expired, priority=Simulator.PRIORITY_MAC, name="nav")

    def update(self, duration: float) -> None:
        """Extend the NAV to ``now + duration`` if that is later than the current value."""
        if duration <= 0:
            return
        now = self._sim._now
        candidate = now + duration
        if candidate > self.until:
            self.until = candidate
            self._expiry.start(candidate - now)

    def _expired(self) -> None:
        if not self._sim._now < self.until:
            self._on_expire()
