"""Trajectory math of the mobility models and position_at interpolation."""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.mobility.models import CircularOrbit, RandomWaypoint, TrajectoryLeg

AREA = (0.0, 0.0, 20.0, 20.0)


def _sample_times(horizon: float, step: float = 0.37):
    t = step
    while t <= horizon:
        yield t
        t += step


# ---------------------------------------------------------------------------
# Legs
# ---------------------------------------------------------------------------

def test_trajectory_leg_interpolates_and_clamps():
    leg = TrajectoryLeg(start_time=1.0, duration=2.0, start=(0.0, 0.0), velocity=(3.0, 4.0))
    assert leg.position_at(1.0) == (0.0, 0.0)
    assert leg.position_at(2.0) == (3.0, 4.0)
    assert leg.end == (6.0, 8.0)
    assert leg.end_time == 3.0
    assert leg.speed == pytest.approx(5.0)
    # Queries outside the span clamp to the endpoints.
    assert leg.position_at(0.0) == (0.0, 0.0)
    assert leg.position_at(99.0) == leg.end


# ---------------------------------------------------------------------------
# Binding
# ---------------------------------------------------------------------------

def test_models_require_binding_before_queries():
    with pytest.raises(ConfigurationError, match="bound"):
        CircularOrbit(radius=1.0, period=4.0).position_at(0.0)
    with pytest.raises(ConfigurationError, match="bound"):
        RandomWaypoint(area=AREA).position_at(1.0)


def test_rebinding_is_rejected():
    for model in (RandomWaypoint(area=AREA), CircularOrbit(radius=1.0, period=4.0)):
        model.bind(random.Random(1), (0.0, 0.0))
        with pytest.raises(ConfigurationError, match="already bound"):
            model.bind(random.Random(2), (1.0, 1.0))


# ---------------------------------------------------------------------------
# Random waypoint
# ---------------------------------------------------------------------------

def test_random_waypoint_stays_inside_area():
    model = RandomWaypoint(area=AREA, speed_range=(1.0, 3.0), pause_time=0.5)
    model.bind(random.Random(42), (10.0, 10.0))
    for t in _sample_times(120.0):
        x, y = model.position_at(t)
        assert 0.0 <= x <= 20.0 and 0.0 <= y <= 20.0


def test_random_waypoint_leg_speeds_and_pauses():
    model = RandomWaypoint(area=AREA, speed_range=(1.0, 3.0), pause_time=0.5)
    model.bind(random.Random(7), (10.0, 10.0))
    model.position_at(60.0)  # force trajectory generation
    move_legs = [leg for leg in model.legs if leg.speed > 0]
    pause_legs = [leg for leg in model.legs if leg.speed == 0]
    assert move_legs and pause_legs
    for leg in move_legs:
        assert 1.0 - 1e-9 <= leg.speed <= 3.0 + 1e-9
    for leg in pause_legs:
        assert leg.duration == pytest.approx(0.5)
        # Position is frozen across a pause.
        assert leg.position_at(leg.start_time) == leg.position_at(leg.end_time)


def test_random_waypoint_position_is_linear_within_a_leg():
    model = RandomWaypoint(area=AREA, speed_range=(2.0, 2.0))
    model.bind(random.Random(3), (5.0, 5.0))
    model.position_at(30.0)
    leg = next(leg for leg in model.legs if leg.speed > 0 and leg.duration > 1.0)
    mid = leg.start_time + leg.duration / 2.0
    expected = ((leg.start[0] + leg.end[0]) / 2.0, (leg.start[1] + leg.end[1]) / 2.0)
    assert model.position_at(mid) == pytest.approx(expected)


def test_random_waypoint_is_deterministic_per_stream_seed():
    times = list(_sample_times(45.0))
    trajectories = []
    for _ in range(2):
        model = RandomWaypoint(area=AREA, speed_range=(0.5, 4.0), pause_time=0.25)
        model.bind(random.Random(99), (1.0, 2.0))
        trajectories.append([model.position_at(t) for t in times])
    assert trajectories[0] == trajectories[1]
    other = RandomWaypoint(area=AREA, speed_range=(0.5, 4.0), pause_time=0.25)
    other.bind(random.Random(100), (1.0, 2.0))
    assert [other.position_at(t) for t in times] != trajectories[0]


def test_random_waypoint_query_order_does_not_change_the_trajectory():
    eager = RandomWaypoint(area=AREA, speed_range=(1.0, 2.0))
    eager.bind(random.Random(5), (0.0, 0.0))
    lazy = RandomWaypoint(area=AREA, speed_range=(1.0, 2.0))
    lazy.bind(random.Random(5), (0.0, 0.0))
    # One model is queried densely, the other jumps straight to the end:
    # forward-only generation must produce the identical trajectory.
    dense = [eager.position_at(t) for t in _sample_times(50.0)]
    assert lazy.position_at(50.0) == eager.position_at(50.0)
    assert [lazy.position_at(t) for t in _sample_times(50.0)] == dense


def test_positions_before_the_binding_time_are_the_origin():
    model = RandomWaypoint(area=AREA, speed_range=(1.0, 2.0))
    model.bind(random.Random(5), (4.0, 4.0), start_time=10.0)
    assert model.position_at(0.0) == (4.0, 4.0)
    assert model.position_at(10.0) == (4.0, 4.0)
    assert model.position_at(20.0) != (4.0, 4.0)


# ---------------------------------------------------------------------------
# Circular orbit
# ---------------------------------------------------------------------------

def test_circular_orbit_closed_form():
    # Bound at the bottom of its circle: the center is (1, 1).
    model = CircularOrbit(radius=4.0, period=8.0)
    model.bind(random.Random(1), (1.0, -3.0))
    assert model.position_at(0.0) == pytest.approx((1.0, -3.0))
    assert model.position_at(2.0) == pytest.approx((5.0, 1.0))  # quarter turn
    assert model.position_at(4.0) == pytest.approx((1.0, 5.0))
    for t in _sample_times(16.0):
        x, y = model.position_at(t)
        assert math.hypot(x - 1.0, y - 1.0) == pytest.approx(4.0)


def test_circular_orbit_center_derived_from_binding_position():
    model = CircularOrbit(radius=5.0, period=10.0)  # bound at phase -pi/2
    model.bind(random.Random(1), (2.0, 3.0))
    assert model.position_at(0.0) == pytest.approx((2.0, 3.0))
    # A quarter period later the node is level with the center (2, 8).
    assert model.position_at(2.5) == pytest.approx((7.0, 8.0))
    # Half a period later the node is diametrically opposite.
    assert model.position_at(5.0) == pytest.approx((2.0, 13.0))
    assert model.position_at(10.0) == pytest.approx((2.0, 3.0))


def test_circular_orbit_period_sign_sets_direction():
    # Both orbit (0, 0) from its bottom, (0, -1).
    ccw = CircularOrbit(radius=1.0, period=4.0)
    ccw.bind(random.Random(1), (0.0, -1.0))
    cw = CircularOrbit(radius=1.0, period=-4.0)
    cw.bind(random.Random(1), (0.0, -1.0))
    assert ccw.position_at(1.0) == pytest.approx((1.0, 0.0))
    assert cw.position_at(1.0) == pytest.approx((-1.0, 0.0))


# ---------------------------------------------------------------------------
# Query independence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: RandomWaypoint(area=AREA, speed_range=(1.0, 2.0), pause_time=0.3),
    lambda: CircularOrbit(radius=3.0, period=-5.0),
], ids=["waypoint", "orbit"])
def test_trajectory_is_independent_of_query_density_and_order(make):
    """How often, and in what order, positions are asked for never matters.

    Nothing ticks a model: its trajectory is a function of its stream and
    parameters alone, so a densely queried model, a sparsely queried one and
    one asked for a far time first all give the same positions.
    """
    times = [0.3, 1.7, 4.9, 9.2, 30.05]
    models = [make() for _ in range(3)]
    for model in models:
        model.bind(random.Random(6), (10.0, 10.0))
    dense, sparse, far_first = models
    for t in _sample_times(31.0, step=0.01):
        dense.position_at(t)
    far_first.position_at(60.0)
    expected = [sparse.position_at(t) for t in times]
    assert [dense.position_at(t) for t in times] == expected
    assert [far_first.position_at(t) for t in times] == expected


def test_invalid_parameters_are_rejected():
    with pytest.raises(ConfigurationError):
        RandomWaypoint(area=(0.0, 0.0, -1.0, 5.0))
    with pytest.raises(ConfigurationError):
        RandomWaypoint(area=AREA, speed_range=(-1.0, 2.0))
    with pytest.raises(ConfigurationError):
        CircularOrbit(radius=0.0, period=1.0)
    with pytest.raises(ConfigurationError):
        CircularOrbit(radius=1.0, period=0.0)
