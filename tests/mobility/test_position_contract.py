"""Where a PHY is: one source, chosen when the PHY is built.

A PHY built without a model is where it was put, until its ``position`` is
assigned.  A PHY built with ``mobility=model`` binds the model in its
constructor, and from then on its ``position`` is the model's exact
``position_at(now)``: assignment is refused, nothing is scheduled on the
model's behalf, and a model serves one PHY only.  Positions and model
parameters that are not finite are refused when they are given, before
anything is registered or scheduled.
"""

from __future__ import annotations

import math

import pytest

from helpers.mobility import Fixed

from repro.channel.medium import WirelessChannel
from repro.core.policies import broadcast_aggregation
from repro.errors import ConfigurationError, PhyError
from repro.mobility.models import CircularOrbit, RandomWaypoint
from repro.phy.device import Phy
from repro.sim.simulator import Simulator
from repro.topology.mobile import MobileScenario

NAN = math.nan
INF = math.inf
AREA = (0.0, 0.0, 20.0, 20.0)


def _channel_with_a(sim):
    channel = WirelessChannel(sim)
    a = Phy(sim, channel, position=(0.0, 0.0), name="a")
    return channel, a


def test_a_phy_with_a_model_refuses_a_position():
    sim = Simulator(seed=1)
    channel, a = _channel_with_a(sim)
    b = Phy(sim, channel, position=(2.5, 0.0), name="b", mobility=Fixed())
    spatial = channel._ensure_spatial()
    power = channel.received_power_dbm(a, b)
    with pytest.raises(PhyError, match="mobility model"):
        b.position = (30.0, 0.0)
    # Position, link budget and grid entry all stay where the model puts b.
    assert b.position == (2.5, 0.0)
    assert channel.received_power_dbm(a, b) == power
    assert spatial.cell_for((30.0, 0.0)) != spatial.cell_for((2.5, 0.0))
    assert spatial.candidates((2.5, 0.0), 0.0, sim.now) == [a, b]
    assert spatial.candidates((30.0, 0.0), 0.0, sim.now) == []


def test_a_moving_phy_is_where_its_model_puts_it_now():
    sim = Simulator(seed=1)
    channel, _ = _channel_with_a(sim)
    model = RandomWaypoint(area=AREA, speed_range=(1.0, 2.0))
    b = Phy(sim, channel, position=(5.0, 5.0), name="b", mobility=model)
    assert b.position == (5.0, 5.0)
    sim.run(until=0.37)
    assert b.position == model.position_at(0.37) == b.position_at(0.37)
    assert b.position != (5.0, 5.0)


def test_moving_nodes_schedule_nothing():
    sim = Simulator(seed=1)
    scenario = MobileScenario(sim, policy=broadcast_aggregation())
    for start in ((0.0, 0.0), (5.0, 5.0)):
        scenario.add_node(start, RandomWaypoint(area=AREA, speed_range=(1.0, 2.0)))
    assert sim.pending_events == 0
    sim.run(until=10.0)
    assert sim.events_processed == 0
    assert scenario.network.node(1).position != (0.0, 0.0)


def test_a_bound_model_is_refused_by_a_second_phy():
    sim = Simulator(seed=1)
    channel = WirelessChannel(sim)
    model = CircularOrbit(radius=2.5, period=8.0)
    a = Phy(sim, channel, position=(0.0, 0.0), name="a", mobility=model)
    with pytest.raises(ConfigurationError, match="already bound"):
        Phy(sim, channel, position=(5.0, 0.0), name="b", mobility=model)
    assert channel.phys == [a]
    assert a.mobility is model


@pytest.mark.parametrize("position, make_model", [
    ((NAN, 0.0), None),
    ((0.0, INF), None),
    ((2.5, 0.0), lambda: CircularOrbit(radius=2.5, period=NAN)),
    ((2.5, 0.0), lambda: CircularOrbit(radius=2.5, period=INF)),
    ((2.5, 0.0), lambda: CircularOrbit(radius=NAN, period=4.0)),
    ((2.5, 0.0), lambda: CircularOrbit(radius=INF, period=4.0)),
    ((2.5, 0.0), lambda: RandomWaypoint(area=(0.0, 0.0, NAN, 5.0))),
    ((2.5, 0.0), lambda: RandomWaypoint(area=(0.0, 0.0, 5.0, INF))),
    ((2.5, 0.0), lambda: RandomWaypoint(area=AREA, pause_time=NAN)),
    ((2.5, 0.0), lambda: RandomWaypoint(area=AREA, pause_time=INF)),
    ((2.5, 0.0), lambda: RandomWaypoint(area=AREA, speed_range=(NAN, 2.0))),
    ((2.5, 0.0), lambda: RandomWaypoint(area=AREA, speed_range=(1.0, INF))),
], ids=["x-nan", "y-inf", "orbit-period-nan", "orbit-period-inf", "orbit-radius-nan",
        "orbit-radius-inf", "waypoint-area-nan", "waypoint-area-inf", "waypoint-pause-nan",
        "waypoint-pause-inf", "waypoint-speed-nan", "waypoint-speed-inf"])
def test_non_finite_positions_and_parameters_are_refused(position, make_model):
    """Regression: each of these was accepted, and a NaN position reached the
    scheduler as begin/end-reception events at time NaN."""
    sim = Simulator(seed=1)
    channel, a = _channel_with_a(sim)
    with pytest.raises(ConfigurationError):
        Phy(sim, channel, position=position, name="b",
            mobility=None if make_model is None else make_model())
    assert channel.phys == [a]
    assert sim.pending_events == 0


@pytest.mark.parametrize("position", [(NAN, 0.0), (0.0, -INF)], ids=["nan", "inf"])
def test_assigning_a_non_finite_position_is_refused(position):
    sim = Simulator(seed=1)
    channel, a = _channel_with_a(sim)
    spatial = channel._ensure_spatial()
    with pytest.raises(ConfigurationError):
        a.position = position
    assert a.position == (0.0, 0.0)
    assert spatial.candidates((0.0, 0.0), 0.0, sim.now) == [a]
    spatial.audit()
