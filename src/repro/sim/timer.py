"""Restartable one-shot and periodic timers.

Protocol code (MAC retransmission timeouts and the NAV, TCP RTO, DBA flush
timers, CBR sources, routing beacons) needs timers that can be started,
restarted and cancelled.  A :class:`Timer` is the only object outside the
scheduler that keeps a pending :class:`~repro.sim.scheduler.Event`: everything
else either fires and forgets (channel deliveries, PHY transmit ends) or holds
a ``Timer``.  :class:`PeriodicTimer` re-arms its ``Timer`` through
:meth:`Timer.start` after each tick.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.scheduler import Event
from repro.sim.simulator import Simulator


class Timer:
    """A cancellable, restartable one-shot timer.

    The callback is invoked with no arguments when the timer expires.  Calling
    :meth:`start` while the timer is running restarts it (the previous
    expiration is cancelled).
    """

    __slots__ = ("_sim", "_callback", "_priority", "_event", "name")

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[], Any],
        priority: int = Simulator.PRIORITY_DEFAULT,
        name: str = "timer",
    ) -> None:
        if not callable(callback):
            raise SimulationError("timer callback must be callable")
        self._sim = sim
        self._callback = callback
        self._priority = priority
        self._event: Optional[Event] = None
        self.name = name

    @property
    def running(self) -> bool:
        """True while an expiration is pending."""
        return self._event is not None and self._event.active

    @property
    def expiry_time(self) -> Optional[float]:
        """Absolute simulated time of the pending expiration, if any."""
        if self.running:
            return self._event.time
        return None

    def start(self, delay: float) -> None:
        """(Re)arm the timer to fire ``delay`` seconds from now.

        A rejected ``delay`` (negative or NaN) leaves a pending expiration
        armed.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        sim = self._sim
        scheduler = sim._scheduler
        event = self._event
        if event is not None:
            scheduler.cancel(event)
        # Push straight onto the scheduler: timers are restarted on nearly
        # every frame (backoff, response timeouts), making this one of the
        # hottest scheduling call sites.
        self._event = scheduler.push(sim._now + delay, self._fire, (), self._priority)

    def cancel(self) -> None:
        """Disarm the timer if it is running (idempotent)."""
        if self._event is not None:
            self._sim._scheduler.cancel(self._event)
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"expires@{self._event.time:.6f}" if self.running else "idle"
        return f"<Timer {self.name} {state}>"


class PeriodicTimer:
    """A timer that re-arms itself after every tick, up to the run's horizon.

    ``period`` is the gap to the next tick; the routing and flooding
    sources re-draw it around its nominal value after each tick
    (:func:`repro.net.discovery.rejitter`).
    """

    __slots__ = ("period", "_callback", "_timer")

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], Any],
        priority: int = Simulator.PRIORITY_DEFAULT,
        name: str = "periodic",
    ) -> None:
        if not period > 0:
            raise SimulationError(f"period must be positive, got {period}")
        self.period = period
        self._callback = callback
        self._timer = Timer(sim, self._tick, priority=priority, name=name)

    def start(self, delay: float) -> None:
        """Start ticking; the first tick fires ``delay`` seconds from now."""
        self._timer.start(delay)

    def _tick(self) -> None:
        self._callback()
        # The callback may have restarted the timer itself; only re-arm
        # when it did not.
        if not self._timer.running:
            self._timer.start(self.period)
