"""The simulation clock and run loop.

:class:`Simulator` owns a :class:`~repro.sim.scheduler.Scheduler`, the current
simulated time, the root random-number streams and the tracer.  Every other
component in the library holds a reference to a ``Simulator`` and interacts
with time exclusively through it.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.obs.metrics import NULL_METRICS
from repro.obs.session import on_simulator_created
from repro.sim.randomness import RandomStreams
from repro.sim.scheduler import Event, Scheduler
from repro.sim.telemetry import TELEMETRY
from repro.sim.trace import Tracer


class Simulator:
    """Discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for all random streams derived from this simulator.

    Components report events through :attr:`tracer`, the one instrumentation
    channel.  It is off (no listeners) unless an observability session
    (:func:`repro.obs.session.observe`) adopts the simulator.
    """

    #: Event priorities.  Lower values fire first at equal times.  PHY events
    #: fire before MAC events which fire before application events so that a
    #: frame that finishes reception at time *t* is processed before a timer
    #: that expires at the same instant.
    __slots__ = ("_now", "_scheduler", "_running", "random",
                 "tracer", "_events_processed", "metrics")

    PRIORITY_PHY = 0
    PRIORITY_MAC = 10
    PRIORITY_NET = 20
    PRIORITY_APP = 30
    PRIORITY_DEFAULT = 50

    def __init__(self, seed: int = 1) -> None:
        self._now = 0.0
        self._scheduler = Scheduler()
        self._running = False
        self.random = RandomStreams(seed)
        self.tracer = Tracer(self)
        self._events_processed = 0
        #: Metrics registry that components register snapshot-time
        #: collectors with; the shared disabled one unless an observability
        #: session (``repro.obs.session.observe``) swaps in a live registry.
        self.metrics = NULL_METRICS
        # Adopt this simulator into the active observability session, if any.
        on_simulator_created(self)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._scheduler)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Negative and NaN delays are rejected.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._scheduler.push(self._now + delay, callback, args, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulated time.

        Times before :attr:`now`, and NaN, are rejected.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        return self._scheduler.push(time, callback, args, priority)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains or the next one lies past ``until``.

        Returns the simulated time at which the run loop exited: ``until``
        when a horizon is given, else the time of the last event.  A horizon
        earlier than :attr:`now` (or NaN) is rejected, since the clock never
        moves backwards, and so is an infinite one, which would leave the
        clock at infinity once the queue drains.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if until is not None:
            if not until >= self._now:
                raise SimulationError(
                    f"cannot run into the past (until={until}, now={self._now})"
                )
            if until == math.inf:
                raise SimulationError("run horizon must be finite (until=inf)")
        self._running = True
        processed_this_run = 0
        started_at = self._now
        pop_next = self._scheduler.pop_next
        try:
            while (event := pop_next(until)) is not None:
                self._now = event.time
                event.callback(*event.args)
                self._events_processed += 1
                processed_this_run += 1
            if until is not None:
                # Every event up to the horizon ran: the clock moves to it.
                self._now = until
        finally:
            self._running = False
            TELEMETRY.record_run(processed_this_run, self._now - started_at)
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={self._now:.6f}s pending={self.pending_events} "
            f"processed={self._events_processed}>"
        )
