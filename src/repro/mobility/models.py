"""Node mobility models.

The paper's testbed is stationary: every experiment in Section 5 runs with
fixed indoor node positions at a ~25 dB operating SNR, so link quality never
changes during a run.  This module deliberately departs from that setup — it
supplies deterministic, seedable mobility processes so the aggregation-policy
trade-offs can be studied while neighbor sets and link budgets change under
them.

Design:

* A model produces a **piecewise-linear trajectory** (or a closed form, for
  :class:`CircularOrbit`).  ``position_at(t)`` interpolates analytically
  between waypoints, so a position is exact at any time and never depends
  on how often, or in what order, it is queried.
* A model is given to a PHY when the PHY is built
  (``Phy(..., mobility=model)``), which binds it once; from then on the
  PHY's ``position`` *is* ``position_at(now)``.  Nothing is scheduled on a
  model's behalf: it does work only when a position is asked for.
* Every random draw comes from a dedicated per-model stream derived from the
  simulator's root seed (``mobility.<phy name>``), so giving a PHY a model
  never perturbs any other component's random sequence and same-seed runs
  are byte-identical.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError

Position = Tuple[float, float]
Velocity = Tuple[float, float]

#: Bounding box as (x_min, y_min, x_max, y_max) in metres.
Area = Tuple[float, float, float, float]

#: How long a random waypoint stays put when a draw gives it no hop to
#: travel (zero distance or speed) and no pause is configured (seconds).
_ZERO_HOP_PAUSE_S = 0.1

_EPSILON = 1e-12

#: Phase of a :class:`CircularOrbit`'s binding position on its circle.
_START_PHASE_RAD = -math.pi / 2.0


def _check_area(area: Area) -> Area:
    x_min, y_min, x_max, y_max = (float(v) for v in area)
    if not all(map(math.isfinite, (x_min, y_min, x_max, y_max))):
        raise ConfigurationError(f"mobility area bounds must be finite, got {area}")
    if x_max <= x_min or y_max <= y_min:
        raise ConfigurationError(f"degenerate mobility area {area}")
    return (x_min, y_min, x_max, y_max)


def _check_speed_range(speed_range: Tuple[float, float]) -> Tuple[float, float]:
    low, high = (float(v) for v in speed_range)
    if not (math.isfinite(low) and math.isfinite(high)) or low < 0 or high < low:
        raise ConfigurationError(f"invalid speed range {speed_range}")
    return (low, high)


@dataclass(frozen=True)
class TrajectoryLeg:
    """One straight-line segment of a trajectory (zero velocity = a pause)."""

    start_time: float
    duration: float
    start: Position
    velocity: Velocity

    @property
    def end_time(self) -> float:
        """Simulated time at which the leg ends."""
        return self.start_time + self.duration

    @property
    def end(self) -> Position:
        """Position at the end of the leg."""
        return (self.start[0] + self.velocity[0] * self.duration,
                self.start[1] + self.velocity[1] * self.duration)

    @property
    def speed(self) -> float:
        """Scalar speed along the leg in m/s."""
        return math.hypot(*self.velocity)

    def position_at(self, time: float) -> Position:
        """Analytic position along the leg (clamped to the leg's time span)."""
        dt = min(max(time - self.start_time, 0.0), self.duration)
        return (self.start[0] + self.velocity[0] * dt,
                self.start[1] + self.velocity[1] * dt)


class MobilityModel:
    """Base class: binding and the query interface.

    A model is *bound* once to an RNG stream and an origin, after which
    :meth:`position_at` answers for any ``time >= start_time``.  The PHY a
    model is given to binds it in its constructor (see
    :class:`~repro.phy.device.Phy`); standalone and unit-test use calls
    :meth:`bind` directly.
    """

    def __init__(self) -> None:
        self._rng: Optional[random.Random] = None
        self._origin: Position = (0.0, 0.0)
        self._start_time = 0.0

    def bind(self, rng: random.Random, initial_position: Position,
             start_time: float = 0.0) -> "MobilityModel":
        """Bind the model to a random stream and an origin (idempotent-free).

        Re-binding a model that already generated trajectory state is a
        configuration error: the trajectory is a function of the stream, so a
        second binding would silently splice two incompatible histories.
        """
        if self._rng is not None:
            raise ConfigurationError("mobility model is already bound")
        self._rng = rng
        self._origin = (float(initial_position[0]), float(initial_position[1]))
        self._start_time = start_time
        self._on_bound()
        return self

    def _on_bound(self) -> None:
        """Subclass hook invoked once the RNG and origin are available."""

    def _require_bound(self) -> None:
        if self._rng is None:
            raise ConfigurationError(
                f"{type(self).__name__} must be bound (give it to a Phy, or "
                "bind()) before positions can be queried")

    def position_at(self, time: float) -> Position:
        """Exact position at simulated ``time`` (>= the binding time)."""
        raise NotImplementedError


class RandomWaypoint(MobilityModel):
    """Classic random-waypoint mobility.

    Repeatedly: draw a destination uniformly inside ``area``, draw a speed
    uniformly from ``speed_range``, travel there in a straight line, pause
    for ``pause_time`` seconds.

    Legs are generated strictly forward in time from the model's own stream,
    so the sequence of draws depends only on (seed, parameters) — never on
    when or how often ``position_at`` is called.
    """

    def __init__(self, area: Area, speed_range: Tuple[float, float] = (0.5, 2.0),
                 pause_time: float = 0.0) -> None:
        super().__init__()
        self.area = _check_area(area)
        self.speed_range = _check_speed_range(speed_range)
        if self.speed_range[1] <= 0:
            raise ConfigurationError("random waypoint needs a positive top speed")
        if not 0.0 <= pause_time < math.inf:
            raise ConfigurationError(
                f"pause_time must be finite and non-negative, got {pause_time}")
        self.pause_time = pause_time
        self._legs: List[TrajectoryLeg] = []
        self._leg_starts: List[float] = []
        # End time of the last leg, so a query inside the generated
        # trajectory skips the checks; NaN (never >= a time) until a leg exists.
        self._end_time = math.nan

    def _append_leg(self, leg: TrajectoryLeg) -> None:
        if leg.duration <= 0:
            raise ConfigurationError("trajectory legs must have positive duration")
        self._legs.append(leg)
        self._leg_starts.append(leg.start_time)
        self._end_time = leg.end_time

    def _frontier(self) -> Tuple[float, Position]:
        """Time and position from which the next leg departs."""
        if not self._legs:
            return self._start_time, self._origin
        last = self._legs[-1]
        return last.end_time, last.end

    def _extend_to(self, time: float) -> None:
        while self._frontier()[0] < time:
            start_time, start = self._frontier()
            for leg in self._next_legs(start_time, start):
                self._append_leg(leg)

    def _next_legs(self, start_time: float, start: Position) -> List[TrajectoryLeg]:
        x_min, y_min, x_max, y_max = self.area
        destination = (self._rng.uniform(x_min, x_max), self._rng.uniform(y_min, y_max))
        speed = self._rng.uniform(*self.speed_range)
        distance = math.hypot(destination[0] - start[0], destination[1] - start[1])
        legs: List[TrajectoryLeg] = []
        cursor = start_time
        if distance > _EPSILON and speed > _EPSILON:
            travel_time = distance / speed
            velocity = ((destination[0] - start[0]) / travel_time,
                        (destination[1] - start[1]) / travel_time)
            legs.append(TrajectoryLeg(cursor, travel_time, start, velocity))
            cursor += travel_time
            start = destination
        if self.pause_time > 0:
            legs.append(TrajectoryLeg(cursor, self.pause_time, start, (0.0, 0.0)))
        if not legs:
            # Zero-length hop with no pause: burn no time but keep the
            # trajectory advancing (treat it as a minimal pause).
            legs.append(TrajectoryLeg(cursor, _ZERO_HOP_PAUSE_S, start, (0.0, 0.0)))
        return legs

    def position_at(self, time: float) -> Position:
        if not time <= self._end_time:
            # Past the last leg, or no leg yet: check the binding and
            # generate legs up to ``time``.
            self._require_bound()
            if time <= self._start_time:
                return self._origin
            self._extend_to(time)
        elif time <= self._start_time:
            return self._origin
        # TrajectoryLeg.position_at, inline (the same clamp, as comparisons):
        # this runs once per link budget.
        leg = self._legs[bisect.bisect_right(self._leg_starts, time) - 1]
        dt = time - leg.start_time
        if 0.0 > dt:
            dt = 0.0
        elif leg.duration < dt:
            dt = leg.duration
        start, velocity = leg.start, leg.velocity
        return (start[0] + velocity[0] * dt, start[1] + velocity[1] * dt)

    @property
    def legs(self) -> Tuple[TrajectoryLeg, ...]:
        """The trajectory generated so far (diagnostics and unit tests)."""
        return tuple(self._legs)


class CircularOrbit(MobilityModel):
    """Deterministic circular motion (closed form, no randomness).

    The node orbits at ``radius`` metres, completing one revolution every
    ``period`` seconds (negative = clockwise).  The binding position is the
    point on the circle at phase :data:`_START_PHASE_RAD` (the bottom of the
    circle), so a PHY built with the orbit starts exactly where the topology
    placed it and orbits a center ``radius`` metres above it.
    """

    def __init__(self, radius: float, period: float) -> None:
        super().__init__()
        if not 0.0 < radius < math.inf:
            raise ConfigurationError(f"orbit radius must be positive and finite, got {radius}")
        if not (math.isfinite(period) and period != 0):
            raise ConfigurationError(f"orbit period must be finite and non-zero, got {period}")
        self.radius = radius
        self.period = period
        self._center: Position = (0.0, 0.0)

    def _on_bound(self) -> None:
        self._center = (
            self._origin[0] - self.radius * math.cos(_START_PHASE_RAD),
            self._origin[1] - self.radius * math.sin(_START_PHASE_RAD),
        )

    def position_at(self, time: float) -> Position:
        if self._rng is None:
            self._require_bound()
        elapsed = max(time - self._start_time, 0.0)
        angle = _START_PHASE_RAD + 2.0 * math.pi * elapsed / self.period
        return (self._center[0] + self.radius * math.cos(angle),
                self._center[1] + self.radius * math.sin(angle))
