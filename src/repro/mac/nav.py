"""Virtual carrier sensing (the network allocation vector).

Overheard RTS/CTS frames and the duration field of the first unicast subframe
of an aggregate (Section 4.2.1) set the NAV; the DCF treats the medium as
busy until the NAV expires, in addition to physical carrier sensing.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.simulator import Simulator
from repro.sim.timer import Timer


class NetworkAllocationVector:
    """Tracks the time until which the medium is virtually reserved."""

    __slots__ = ("_sim", "_until", "_on_expire", "_expiry", "updates")

    def __init__(self, sim: Simulator, on_expire: Optional[Callable[[], None]] = None) -> None:
        self._sim = sim
        self._until = 0.0
        self._on_expire = on_expire
        #: Fires when the reservation ends; only needed to call ``on_expire``.
        self._expiry = None if on_expire is None else Timer(
            sim, self._expired, priority=Simulator.PRIORITY_MAC, name="nav")
        self.updates = 0

    @property
    def busy(self) -> bool:
        """True while the NAV reserves the medium."""
        return self._sim.now < self._until

    @property
    def until(self) -> float:
        """Absolute time at which the current reservation ends."""
        return self._until

    def remaining(self) -> float:
        """Seconds of reservation left (0 when idle)."""
        return max(0.0, self._until - self._sim.now)

    def update(self, duration: float) -> None:
        """Extend the NAV to ``now + duration`` if that is later than the current value."""
        if duration <= 0:
            return
        now = self._sim._now
        candidate = now + duration
        if candidate > self._until:
            self._until = candidate
            self.updates += 1
            if self._expiry is not None:
                self._expiry.start(max(0.0, candidate - now))

    def clear(self) -> None:
        """Cancel any reservation."""
        self._until = 0.0
        if self._expiry is not None:
            self._expiry.cancel()

    def _expired(self) -> None:
        if not self._sim._now < self._until:
            self._on_expire()
