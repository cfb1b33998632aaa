"""Determinism of the hot-path caches.

Three structures along the per-frame path reuse work: the channel's
per-sender delivery plans, the error model's probability memo and the
frame's sample-offset memo.  Each is sound only if it changes *when math
runs*, never *which numbers come out*.  This file pins that contract,
in-process and across campaign pool workers.

Delivery plans are compared against themselves.  Each run registers one
extra listening PHY out of everyone's reach: built plain, it leaves the
channel caching plans; built with a model that never moves
(``helpers.mobility.Fixed``), it makes the channel build a plan per
broadcast.  Both sides hold the same PHYs at the same places, so the same
run is made once with cached plans and once with a plan built per
broadcast, and the two must be byte-identical, counters included: under
per-link shadowing, through every event that has to drop a cached plan (a
position reassigned mid-run, PHYs registering and leaving mid-run), and on
the grid path above ``AUTO_SPATIAL_THRESHOLD``.  Each comparison also
counts the plans built, so none can pass without the cache having served
some sends.
"""

from __future__ import annotations

import pytest

from helpers.mobility import Fixed

from repro.apps.cbr import CbrSource, UdpSink
from repro.campaign.runner import CampaignRunner
from repro.channel import medium
from repro.channel.medium import WirelessChannel
from repro.core.policies import broadcast_aggregation
from repro.mobility.models import RandomWaypoint
from repro.net.flooding import FloodingSource
from repro.phy.device import Phy
from repro.phy.error_model import ErrorModel
from repro.sim.simulator import Simulator
from repro.topology.builders import PAPER_NODE_SPACING_M
from repro.topology.city import populate_city
from repro.topology.mobile import MobileScenario
from repro.units import mbps

DURATION = 3.0
TINY_TABLE02 = {"rates_mbps": (0.65,), "duration": 2.5}

#: Where the extra listener stands: beyond every sender's reach.
FAR_AWAY = (-500.0, -500.0)


def _far_listener(sim, channel, per_broadcast: bool) -> Phy:
    """The extra PHY of both sides; with a model on the per-broadcast side."""
    return Phy(sim, channel, position=FAR_AWAY, name="listener",
               mobility=Fixed() if per_broadcast else None)


def _phy_counters(phys) -> tuple:
    return ([phy.frames_sent for phy in phys],
            [phy.frames_received for phy in phys],
            [phy.frames_collided for phy in phys],
            [phy.tx_airtime for phy in phys])


def _channel_counters(channel: WirelessChannel) -> tuple:
    return (channel.total_transmissions, channel.total_airtime,
            channel.total_candidates, channel.total_deliveries, channel.total_culled)


def _chain_signature(seed: int, per_broadcast: bool, shadowing_sigma_db=0.0,
                     during=None) -> str:
    """Full observable outcome of a saturating UDP run over a static 3-hop chain.

    ``per_broadcast`` picks the far listener's side (see the module
    docstring).  ``during(sim, channel, network)`` schedules mid-run events
    and returns any extra PHYs whose counters belong in the signature.
    """
    sim = Simulator(seed=seed)
    scenario = MobileScenario(sim, policy=broadcast_aggregation(),
                              unicast_rate_mbps=0.65,
                              shadowing_sigma_db=shadowing_sigma_db)
    for index in range(4):
        scenario.add_node((index * PAPER_NODE_SPACING_M, 0.0))
    scenario.connect_chain(1, 2, 3, 4)
    channel, network = scenario.channel, scenario.network
    extra = [_far_listener(sim, channel, per_broadcast)]
    if during is not None:
        extra += during(sim, channel, network)
    sink_node = network.node(4)
    sink = UdpSink(sink_node)
    source = CbrSource.saturating(network.node(1), sink_node.ip,
                                  link_rate_bps=mbps(0.65), overdrive=1.5)
    source.start(0.001)
    sim.run(until=DURATION)
    phys = [node.phy for node in network.nodes] + list(extra)
    return repr((sink.packets_received, sink.bytes_received, sink.first_arrival,
                 sink.last_arrival, _phy_counters(phys), _channel_counters(channel)))


def _plans_built(run):
    """``run()``'s output and the number of delivery plans it built."""
    built = 0
    plan = WirelessChannel._plan

    def counted(channel, sender, now):
        nonlocal built
        built += 1
        return plan(channel, sender, now)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WirelessChannel, "_plan", counted)
        output = run()
    return output, built


def _assert_cached_plans_match_per_broadcast_plans(run) -> None:
    """``run(per_broadcast)`` agrees both ways, and the cache served some sends."""
    cached, cached_plans = _plans_built(lambda: run(False))
    fresh, fresh_plans = _plans_built(lambda: run(True))
    assert cached == fresh
    assert 0 < cached_plans < fresh_plans


def test_plans_match_per_broadcast_under_shadowing():
    # Every link carries its own shadowing offset: a cached plan must carry
    # the powers a fresh plan draws.
    _assert_cached_plans_match_per_broadcast_plans(
        lambda per_broadcast: _chain_signature(1, per_broadcast, shadowing_sigma_db=4.0))


def test_plans_match_per_broadcast_after_a_scheduled_move():
    # The sink walks out of range and back: a stale plan would keep
    # delivering to it, or keep it out, after each move.
    def during(sim, channel, network):
        sink_phy = network.node(4).phy
        home = sink_phy.position
        sim.schedule(1.0, setattr, sink_phy, "position", (60.0, 0.0))
        sim.schedule(1.8, setattr, sink_phy, "position", home)
        return []

    _assert_cached_plans_match_per_broadcast_plans(
        lambda per_broadcast: _chain_signature(2, per_broadcast, during=during))


def test_plans_match_per_broadcast_when_phys_join_and_leave():
    # The sink leaves and comes back, and a listening PHY joins in between:
    # a stale plan would deliver to the departed sink or miss the newcomer.
    def during(sim, channel, network):
        sink_phy = network.node(4).phy
        late = []
        sim.schedule(1.0, channel.unregister, sink_phy)
        sim.schedule(1.4, lambda: late.append(
            Phy(sim, channel, position=(6.0, 1.0), name="late")))
        sim.schedule(1.8, channel.register, sink_phy)
        return late

    _assert_cached_plans_match_per_broadcast_plans(
        lambda per_broadcast: _chain_signature(3, per_broadcast, during=during))


def _city_flood_signature(seed: int, per_broadcast: bool) -> str:
    """Observable outcome of flooding over an 80-node city, on the grid path."""
    sim = Simulator(seed=seed)
    scenario = MobileScenario(sim, policy=broadcast_aggregation(),
                              unicast_rate_mbps=0.65)
    nodes = populate_city(scenario, 80)
    listener = _far_listener(sim, scenario.channel, per_broadcast)
    assert len(nodes) > medium.AUTO_SPATIAL_THRESHOLD
    # A flooder moves two cells over mid-run: the grid re-buckets it and
    # every cached plan has to go.
    mover = nodes[13].phy
    x, y = mover.position
    sim.schedule(0.5, setattr, mover, "position", (x + 30.0, y))
    flooders = []
    for node in nodes[::13]:
        flooder = FloodingSource(sim, node.network, node.ip, interval=0.2,
                                 payload_bytes=64)
        flooder.start()
        flooders.append(flooder)
    sim.run(until=1.0)
    assert scenario.channel._spatial is not None
    return repr(([flooder.packets_sent for flooder in flooders],
                 [node.network.stats.delivered_broadcast for node in nodes],
                 _phy_counters([node.phy for node in nodes] + [listener]),
                 _channel_counters(scenario.channel)))


def test_plans_match_per_broadcast_on_the_grid_path():
    _assert_cached_plans_match_per_broadcast_plans(
        lambda per_broadcast: _city_flood_signature(5, per_broadcast))


def _mobile_udp_signature(seed: int) -> str:
    """Full observable outcome of a mobile, time-varying-channel UDP run.

    Log-normal shadowing *and* a mobile relay, so moving links produce a
    fresh SNR almost every frame and keep missing the error model's
    probability memo.
    """
    sim = Simulator(seed=seed)
    scenario = MobileScenario(
        sim, policy=broadcast_aggregation(), unicast_rate_mbps=0.65,
        shadowing_sigma_db=4.0)
    scenario.add_node((0.0, 0.0))
    scenario.add_node((2.5, 0.0), RandomWaypoint(area=(-5.0, -5.0, 10.0, 5.0),
                                                 speed_range=(1.0, 3.0)))
    scenario.add_node((5.0, 0.0))
    scenario.connect_chain(1, 2, 3)
    network = scenario.network
    sink_node = network.node(3)
    sink = UdpSink(sink_node)
    source = CbrSource.saturating(network.node(1), sink_node.ip,
                                  link_rate_bps=mbps(0.65), overdrive=1.5)
    source.start(0.001)
    sim.run(until=DURATION)
    return repr((
        sink.packets_received,
        sink.bytes_received,
        sink.first_arrival,
        sink.last_arrival,
        _phy_counters([node.phy for node in network.nodes]),
    ))


def test_error_memo_cap_is_invisible_on_mobile_run(monkeypatch):
    # The per-PHY error-probability memo is cleared whenever it reaches its
    # cap; a cap of 1 clears it on nearly every miss, which must not change
    # a byte of a run whose moving links miss it most of the time.
    default = _mobile_udp_signature(1)
    monkeypatch.setattr(ErrorModel, "_CACHE_LIMIT", 1)
    assert _mobile_udp_signature(1) == default


def test_mobile_memo_runs_still_diverge_across_seeds():
    # Guard against the signatures degenerating into something seed-blind.
    assert _mobile_udp_signature(1) != _mobile_udp_signature(2)
    assert _chain_signature(1, False) != _chain_signature(2, False)


def test_repeated_runs_in_one_process_are_byte_identical():
    # Plans, probabilities and offsets live on per-run objects, but a
    # second run in the same process must not see any process-level leakage
    # (e.g. a module-global memo keyed on something seed-independent).
    assert _mobile_udp_signature(7) == _mobile_udp_signature(7)
    assert _chain_signature(7, False) == _chain_signature(7, False)


def test_stationary_campaign_across_pool_workers_matches_inline():
    # The stationary fast path (delivery plans cached per sender, error
    # probabilities memoised per rate by identity) must replicate byte for
    # byte in fresh pool workers, or the campaign cache would mix histories
    # across machines/processes.
    inline = CampaignRunner(jobs=1).run_campaign("table02", seeds=[1, 2],
                                                 overrides=TINY_TABLE02)
    pooled = CampaignRunner(jobs=2).run_campaign("table02", seeds=[1, 2],
                                                 overrides=TINY_TABLE02)
    assert pooled.replicas[1].to_dict() == inline.replicas[1].to_dict()
    assert pooled.replicas[2].to_dict() == inline.replicas[2].to_dict()
    assert pooled.aggregate.to_dict() == inline.aggregate.to_dict()
