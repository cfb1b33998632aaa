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
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

Position = Tuple[float, float]
Velocity = Tuple[float, float]

#: Bounding box as (x_min, y_min, x_max, y_max) in metres.
Area = Tuple[float, float, float, float]

#: How long a random waypoint stays put when a draw gives it no hop to
#: travel (zero distance or speed) and no pause is configured (seconds).
_ZERO_HOP_PAUSE_S = 0.1

_EPSILON = 1e-12


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


class _PiecewiseLinearMobility(MobilityModel):
    """Shared leg bookkeeping for waypoint-style models.

    Legs are generated strictly forward in time from the model's own stream,
    so the sequence of draws depends only on (seed, parameters) — never on
    when or how often ``position_at`` is called.
    """

    def __init__(self) -> None:
        super().__init__()
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

    def _next_legs(self, start_time: float, start: Position) -> Sequence[TrajectoryLeg]:
        """Produce the next leg(s) of the trajectory; must advance time."""
        raise NotImplementedError

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


class RandomWaypoint(_PiecewiseLinearMobility):
    """Classic random-waypoint mobility.

    Repeatedly: draw a destination uniformly inside ``area``, draw a speed
    uniformly from ``speed_range``, travel there in a straight line, pause
    for ``pause_time`` seconds.
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

    def _next_legs(self, start_time: float, start: Position) -> Sequence[TrajectoryLeg]:
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


class RandomWalk(_PiecewiseLinearMobility):
    """Bounded random walk with boundary reflection.

    Every ``leg_duration`` seconds the node draws a fresh heading uniformly
    in [0, 2π) and a speed from ``speed_range``; straight paths that would
    leave ``area`` are reflected off the walls (the leg is split at each
    crossing, consuming no extra randomness).
    """

    def __init__(self, area: Area, speed_range: Tuple[float, float] = (0.5, 2.0),
                 leg_duration: float = 2.0) -> None:
        super().__init__()
        self.area = _check_area(area)
        self.speed_range = _check_speed_range(speed_range)
        if not 0.0 < leg_duration < math.inf:
            raise ConfigurationError(
                f"leg_duration must be positive and finite, got {leg_duration}")
        self.leg_duration = leg_duration

    def _next_legs(self, start_time: float, start: Position) -> Sequence[TrajectoryLeg]:
        heading = self._rng.uniform(0.0, 2.0 * math.pi)
        speed = self._rng.uniform(*self.speed_range)
        velocity = (speed * math.cos(heading), speed * math.sin(heading))
        return self._reflected_legs(start_time, start, velocity, self.leg_duration)

    def _reflected_legs(self, start_time: float, start: Position, velocity: Velocity,
                        remaining: float) -> List[TrajectoryLeg]:
        x_min, y_min, x_max, y_max = self.area
        legs: List[TrajectoryLeg] = []
        cursor = start_time
        position = (min(max(start[0], x_min), x_max), min(max(start[1], y_min), y_max))
        if math.hypot(*velocity) <= _EPSILON:
            return [TrajectoryLeg(cursor, remaining, position, (0.0, 0.0))]
        for _ in range(64):  # bound: a leg cannot reflect more often than this
            hit = self._time_to_wall(position, velocity)
            if hit is None or hit >= remaining:
                legs.append(TrajectoryLeg(cursor, remaining, position, velocity))
                return legs
            if hit > _EPSILON:
                legs.append(TrajectoryLeg(cursor, hit, position, velocity))
                cursor += hit
                remaining -= hit
                position = legs[-1].end
            position = (min(max(position[0], x_min), x_max),
                        min(max(position[1], y_min), y_max))
            velocity = self._reflect(position, velocity)
        legs.append(TrajectoryLeg(cursor, remaining, position, (0.0, 0.0)))
        return legs

    def _time_to_wall(self, position: Position, velocity: Velocity) -> Optional[float]:
        x_min, y_min, x_max, y_max = self.area
        times = []
        for coord, v, low, high in ((position[0], velocity[0], x_min, x_max),
                                    (position[1], velocity[1], y_min, y_max)):
            if v > _EPSILON:
                times.append((high - coord) / v)
            elif v < -_EPSILON:
                times.append((low - coord) / v)
        times = [t for t in times if t > _EPSILON]
        return min(times) if times else None

    def _reflect(self, position: Position, velocity: Velocity) -> Velocity:
        x_min, y_min, x_max, y_max = self.area
        vx, vy = velocity
        if (position[0] >= x_max - _EPSILON and vx > 0) or \
                (position[0] <= x_min + _EPSILON and vx < 0):
            vx = -vx
        if (position[1] >= y_max - _EPSILON and vy > 0) or \
                (position[1] <= y_min + _EPSILON and vy < 0):
            vy = -vy
        return (vx, vy)


class CircularOrbit(MobilityModel):
    """Deterministic circular motion (closed form, no randomness).

    The node orbits ``center`` at ``radius`` metres, completing one
    revolution every ``period`` seconds (negative = clockwise).  When no
    center is given, the binding position is taken as the point on the circle
    at ``phase_rad``, so a PHY built with the orbit starts exactly where the
    topology placed it and orbits from there.
    """

    def __init__(self, radius: float, period: float,
                 center: Optional[Position] = None,
                 phase_rad: float = -math.pi / 2.0) -> None:
        super().__init__()
        if not 0.0 < radius < math.inf:
            raise ConfigurationError(f"orbit radius must be positive and finite, got {radius}")
        if not (math.isfinite(period) and period != 0):
            raise ConfigurationError(f"orbit period must be finite and non-zero, got {period}")
        if not math.isfinite(phase_rad):
            raise ConfigurationError(f"orbit phase must be finite, got {phase_rad}")
        if center is not None and not all(map(math.isfinite, center)):
            raise ConfigurationError(f"orbit center must be finite, got {center}")
        self.radius = radius
        self.period = period
        self.phase_rad = phase_rad
        self._center = center

    def _on_bound(self) -> None:
        if self._center is None:
            self._center = (
                self._origin[0] - self.radius * math.cos(self.phase_rad),
                self._origin[1] - self.radius * math.sin(self.phase_rad),
            )

    @property
    def center(self) -> Position:
        """Orbit center (available once bound or when given explicitly)."""
        if self._center is None:
            raise ConfigurationError("orbit center is derived at bind() time")
        return self._center

    def position_at(self, time: float) -> Position:
        if self._rng is None:
            self._require_bound()
        elapsed = max(time - self._start_time, 0.0)
        angle = self.phase_rad + 2.0 * math.pi * elapsed / self.period
        return (self._center[0] + self.radius * math.cos(angle),
                self._center[1] + self.radius * math.sin(angle))
