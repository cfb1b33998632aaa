"""Time-varying link budgets, log-normal shadowing, and the stationary contract.

The mobility subsystem's central promise: the channel evaluates propagation
against exact positions at transmission start, per-link shadowing draws are
deterministic per seed, and a scenario whose nodes carry models that never
move (or no models at all) reproduces the static builders bit for bit.
"""

from __future__ import annotations

import math

import pytest

from helpers.mobility import Fixed

from repro.apps.cbr import CbrSource, UdpSink
from repro.campaign.cli import main as campaign_main
from repro.channel.medium import WirelessChannel
from repro.core.policies import unicast_aggregation
from repro.errors import ConfigurationError
from repro.mobility.models import CircularOrbit
from repro.phy.device import TX_POWER_DBM, Phy
from repro.sim.simulator import Simulator
from repro.topology.builders import build_linear_chain
from repro.topology.network import Network
from repro.units import mbps


def _two_phys(sim, shadowing_sigma_db=0.0, b_position=(5.0, 0.0), b_mobility=None):
    channel = WirelessChannel(sim, shadowing_sigma_db)
    a = Phy(sim, channel, position=(0.0, 0.0), name="a")
    b = Phy(sim, channel, position=b_position, name="b", mobility=b_mobility)
    return channel, a, b


#: Where b starts its orbit: 2.5 m from a, at the bottom of its circle.
ORBIT_START = (0.0, 2.5)


def _orbit_from_a_to_b():
    """Orbits (0, 5) at 2.5 m from ORBIT_START: half a period later at (0, 7.5)."""
    return CircularOrbit(radius=2.5, period=8.0)


# ---------------------------------------------------------------------------
# Time-varying positions in the link budget
# ---------------------------------------------------------------------------

def test_position_at_defaults_to_the_static_attribute():
    sim = Simulator(seed=1)
    _, a, _ = _two_phys(sim)
    # The tuple it was built with, the same object at every time.
    assert a.position_at(0.0) == (0.0, 0.0)
    assert a.position_at(123.0) is a.position_at(0.0)


def test_link_budget_follows_the_mobile_node():
    sim = Simulator(seed=1)
    channel, a, b = _two_phys(sim, b_position=ORBIT_START, b_mobility=_orbit_from_a_to_b())
    power_near = channel.received_power_dbm(a, b)
    samples = []
    sim.schedule(4.0, lambda: samples.append(channel.received_power_dbm(a, b)))
    sim.run(until=8.0)
    # Half a period later the orbit put b at (0, 7.5): 3x the distance.
    power_far = samples[0]
    assert power_near > power_far
    expected_drop = 10.0 * 3.0 * math.log10(7.5 / 2.5)  # log-distance, n=3
    assert power_near - power_far == pytest.approx(expected_drop, rel=1e-6)


def test_received_power_uses_positions_at_the_given_time():
    sim = Simulator(seed=1)
    channel, a, b = _two_phys(sim, b_position=ORBIT_START, b_mobility=_orbit_from_a_to_b())
    loss = channel.propagation
    for t in (0.0, 1.3, 4.0):
        expected = TX_POWER_DBM - loss.path_loss_db(a.position_at(t), b.position_at(t))
        assert channel.received_power_dbm(a, b, time=t) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# Log-normal shadowing
# ---------------------------------------------------------------------------

def test_shadowing_offsets_are_deterministic_per_seed():
    offsets = []
    for _ in range(2):
        sim = Simulator(seed=5)
        channel, a, b = _two_phys(sim, shadowing_sigma_db=6.0)
        offsets.append(channel.propagation.shadowing_db("a", "b"))
    assert offsets[0] == offsets[1]
    sim = Simulator(seed=6)
    channel, a, b = _two_phys(sim, shadowing_sigma_db=6.0)
    assert channel.propagation.shadowing_db("a", "b") != offsets[0]


def test_shadowing_is_symmetric_and_link_specific():
    model = WirelessChannel(Simulator(seed=5), 6.0).propagation
    assert model.shadowing_db("a", "b") == model.shadowing_db("b", "a")
    assert model.shadowing_db("a", "b") != model.shadowing_db("a", "c")


def test_shadowing_offset_is_independent_of_evaluation_order():
    first = WirelessChannel(Simulator(seed=5), 6.0).propagation
    ab_first = first.shadowing_db("a", "b")

    second = WirelessChannel(Simulator(seed=5), 6.0).propagation
    second.shadowing_db("c", "d")  # different link evaluated first
    assert second.shadowing_db("a", "b") == ab_first


def test_shadowing_applies_on_top_of_the_base_model():
    sim = Simulator(seed=5)
    channel, a, b = _two_phys(sim, shadowing_sigma_db=6.0)
    model = channel.propagation
    distance_loss = model.path_loss_db(a.position_at(0.0), b.position_at(0.0))
    expected = distance_loss + model.shadowing_db("a", "b")
    measured = TX_POWER_DBM - channel.received_power_dbm(a, b)
    assert measured == pytest.approx(expected)
    # The distance loss alone is the paper's indoor curve: 66 dB at 1 m,
    # path-loss exponent 3.
    assert distance_loss == pytest.approx(66.0 + 30.0 * math.log10(5.0))


def test_shadowing_offset_is_static_over_time():
    sim = Simulator(seed=5)
    channel, a, b = _two_phys(sim, shadowing_sigma_db=6.0)
    early = channel.received_power_dbm(a, b)
    assert channel.received_power_dbm(a, b, time=99.0) == early
    sim.run(until=99.0)
    assert channel.received_power_dbm(a, b) == early


def test_shadowing_keeps_no_generator_per_link():
    """Regression: each shadowed link kept the generator of its single draw
    for the whole run.  The offsets are still the clamped first draw on the
    link's stream."""
    sim = Simulator(seed=5)
    channel = WirelessChannel(sim, 6.0)
    phys = [Phy(sim, channel, position=(3.0 * i, 0.0), name=f"p{i}") for i in range(6)]
    for phy in phys:
        channel._plan(phy, 0.0)
    model = channel.propagation
    assert len(model._offsets) == 15
    reference = Simulator(seed=5).random.fork("propagation.shadowing")
    for (first, second), offset in model._offsets.items():
        label = f"link.{first}|{second}#epoch0"
        assert label not in model._streams
        draw = reference.stream(label).gauss(0.0, 6.0)
        assert offset == min(max(draw, -36.0), 36.0)


@pytest.mark.parametrize("sigma", (math.nan, math.inf, -1.0, True, "4.0"),
                         ids=("nan", "inf", "negative", "bool", "string"))
def test_shadowing_sigma_must_be_a_finite_non_negative_number(sigma):
    """Regression: a NaN sigma made every budget NaN, which no cull refuses,
    so a PHY 500 m away received the frame; a negative one silently ran
    unshadowed.  The channel refuses such a sigma where it is given."""
    sim = Simulator(seed=5)
    with pytest.raises(ConfigurationError, match="shadowing_sigma_db"):
        WirelessChannel(sim, sigma)
    with pytest.raises(ConfigurationError, match="shadowing_sigma_db"):
        Network(sim, policy=unicast_aggregation(), shadowing_sigma_db=sigma)


def test_mob01_refuses_a_negative_shadowing_sigma(tmp_path, monkeypatch, capsys):
    # Regression: ``--set shadowing_sigma_db=-1.0`` ran without shadowing and
    # exited 0.
    monkeypatch.chdir(tmp_path)
    argv = ["run", "mob01", "--seeds", "1", "--jobs", "1", "--timeout", "0",
            "--no-cache", "--set", "shadowing_sigma_db=-1.0"]
    assert campaign_main(argv) == 2
    captured = capsys.readouterr()
    assert "ConfigurationError: shadowing_sigma_db" in captured.out + captured.err


def test_zero_sigma_shadowing_is_transparent():
    for sigma in (0.0, 0):
        channel, a, b = _two_phys(Simulator(seed=5), shadowing_sigma_db=sigma)
        loss = channel.propagation.path_loss_db(a.position_at(0.0), b.position_at(0.0))
        assert channel.received_power_dbm(a, b) == TX_POWER_DBM - loss


# ---------------------------------------------------------------------------
# The stationary contract
# ---------------------------------------------------------------------------

def _udp_signature(network, sim, duration=1.5):
    sink = UdpSink(network.node(2))
    source = CbrSource.saturating(network.node(1), network.node(2).ip,
                                  link_rate_bps=mbps(0.65))
    source.start(0.001)
    sim.run(until=duration)
    return repr((sink.packets_received, sink.bytes_received, sink.first_arrival,
                 sink.last_arrival, network.node(1).mac_stats.data_transmissions,
                 network.node(1).phy.frames_sent, network.node(2).phy.frames_received))


def _mobile_chain(seed, with_models):
    sim = Simulator(seed=seed)
    network = Network(sim, policy=unicast_aggregation(), unicast_rate_mbps=0.65)
    network.add_node((0.0, 0.0), Fixed() if with_models else None)
    network.add_node((2.5, 0.0), Fixed() if with_models else None)
    network.connect_chain(1, 2)
    return sim, network


def test_stationary_models_reproduce_the_static_scenario_bit_for_bit():
    sim_static, static = _mobile_chain(3, with_models=False)
    sim_model, modelled = _mobile_chain(3, with_models=True)
    assert _udp_signature(static, sim_static) == _udp_signature(modelled, sim_model)


def test_mobile_scenario_matches_the_static_builder_bit_for_bit():
    sim_builder = Simulator(seed=3)
    built = build_linear_chain(sim_builder, hops=1, policy=unicast_aggregation(),
                               unicast_rate_mbps=0.65)
    sim_mobile, mobile = _mobile_chain(3, with_models=False)
    assert _udp_signature(built, sim_builder) == _udp_signature(mobile, sim_mobile)
