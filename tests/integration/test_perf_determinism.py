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
per-link shadowing, through the one event that has to drop cached plans (a
PHY registering mid-run), and on the grid path above
``AUTO_SPATIAL_THRESHOLD``, where the cached side queries the grid and the
per-broadcast side, holding a model, scans.  Each comparison also counts
the plans built, so none can pass without the cache having served some
sends.
"""

from __future__ import annotations

import functools

import pytest

from helpers.mobility import Fixed

from repro.apps.cbr import CbrSource, UdpSink
from repro.campaign.runner import CampaignRunner
from repro.channel import medium
from repro.channel.medium import WirelessChannel
from repro.core.policies import broadcast_aggregation
from repro.mobility.models import RandomWaypoint
from repro.net.flooding import FloodingSource
from repro.phy import error_model
from repro.phy.device import Phy
from repro.sim.simulator import Simulator
from repro.topology.builders import PAPER_NODE_SPACING_M
from repro.topology.city import populate_city
from repro.topology.network import Network
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
    and returns a list that holds, by the end of the run, any extra PHYs
    whose counters belong in the signature.
    """
    sim = Simulator(seed=seed)
    network = Network(sim, policy=broadcast_aggregation(),
                      unicast_rate_mbps=0.65,
                      shadowing_sigma_db=shadowing_sigma_db)
    for index in range(4):
        network.add_node((index * PAPER_NODE_SPACING_M, 0.0))
    network.connect_chain(1, 2, 3, 4)
    channel = network.channel
    extra = [_far_listener(sim, channel, per_broadcast)]
    late = [] if during is None else during(sim, channel, network)
    sink_node = network.node(4)
    sink = UdpSink(sink_node)
    source = CbrSource.saturating(network.node(1), sink_node.ip,
                                  link_rate_bps=mbps(0.65), overdrive=1.5)
    source.start(0.001)
    sim.run(until=DURATION)
    phys = [node.phy for node in network.nodes] + extra + late
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


def test_plans_match_per_broadcast_when_phys_join_and_leave():
    # PHYs never leave; two listening PHYs join mid-run, each within reach
    # of part of the chain: a stale plan would miss the newcomer.
    def during(sim, channel, network):
        late = []
        for at, position in ((1.0, (6.0, 1.0)), (1.8, (2.0, -1.0))):
            sim.schedule(at, lambda position=position: late.append(
                Phy(sim, channel, position=position, name=f"late{len(late)}")))
        return late

    _assert_cached_plans_match_per_broadcast_plans(
        lambda per_broadcast: _chain_signature(3, per_broadcast, during=during))


def _city_flood_signature(seed: int, per_broadcast: bool, join: bool = False) -> str:
    """Observable outcome of flooding over an 80-node city.

    The cached side runs on the grid path; the per-broadcast side holds a
    model, so it scans.  With ``join``, a static PHY joins mid-run next to
    a flooder, which drops the cached side's grid and plans.
    """
    sim = Simulator(seed=seed)
    network = Network(sim, policy=broadcast_aggregation(), unicast_rate_mbps=0.65)
    nodes = populate_city(network, 80)
    extra = [_far_listener(sim, network.channel, per_broadcast)]
    assert len(nodes) > medium.AUTO_SPATIAL_THRESHOLD
    if join:
        x, y = nodes[13].phy.position_at(0.0)
        sim.schedule(0.5, lambda: extra.append(
            Phy(sim, network.channel, position=(x + 3.0, y + 3.0), name="late")))
    flooders = []
    for node in nodes[::13]:
        flooder = FloodingSource(sim, node.network, node.ip, interval=0.2,
                                 payload_bytes=64)
        flooder.start()
        flooders.append(flooder)
    sim.run(until=1.0)
    channel = network.channel
    assert (channel._spatial is None) == per_broadcast
    assert len(extra) == 1 + join
    # Candidate and cull counts measure the enumeration, grid or scan, so
    # only the deliveries of the channel's counters belong here.
    return repr(([flooder.packets_sent for flooder in flooders],
                 [node.network.stats.delivered_broadcast for node in nodes],
                 _phy_counters([node.phy for node in nodes] + extra),
                 (channel.total_transmissions, channel.total_airtime,
                  channel.total_deliveries)))


def test_plans_match_per_broadcast_on_the_grid_path():
    _assert_cached_plans_match_per_broadcast_plans(
        lambda per_broadcast: _city_flood_signature(5, per_broadcast))


def test_plans_match_per_broadcast_when_a_phy_joins_on_the_grid_path():
    # The newcomer drops the cached side's grid and plans; the grid built
    # again from the registered PHYs must file it, or its neighbours'
    # plans would miss it.
    _assert_cached_plans_match_per_broadcast_plans(
        lambda per_broadcast: _city_flood_signature(5, per_broadcast, join=True))


def _mobile_udp_signature(seed: int) -> str:
    """Full observable outcome of a mobile, time-varying-channel UDP run.

    Log-normal shadowing *and* a mobile relay, so moving links produce a
    fresh SNR almost every frame and keep missing the error model's
    probability memo.
    """
    sim = Simulator(seed=seed)
    network = Network(
        sim, policy=broadcast_aggregation(), unicast_rate_mbps=0.65,
        shadowing_sigma_db=4.0)
    network.add_node((0.0, 0.0))
    network.add_node((2.5, 0.0), RandomWaypoint(area=(-5.0, -5.0, 10.0, 5.0),
                                                speed_range=(1.0, 3.0)))
    network.add_node((5.0, 0.0))
    network.connect_chain(1, 2, 3)
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


def _memo_signatures() -> tuple:
    return _mobile_udp_signature(1), _chain_signature(1, False)


def test_error_memo_cap_is_invisible_on_mobile_run(monkeypatch):
    # The error probability is one process-wide memo of a pure function:
    # a cold memo, a memo warmed by the same runs, one evicting on every
    # miss (a cap of 1) and no memo at all must all give the same bytes,
    # on moving links that miss it most of the time and on a static chain
    # that hits it almost always.
    memoised = error_model.subframe_error_probability
    memoised.cache_clear()
    cold = _memo_signatures()
    assert memoised.cache_info().hits > 0
    warm = _memo_signatures()
    monkeypatch.setattr(error_model, "subframe_error_probability",
                        functools.lru_cache(maxsize=1)(memoised.__wrapped__))
    capped = _memo_signatures()
    monkeypatch.setattr(error_model, "subframe_error_probability", memoised.__wrapped__)
    bypassed = _memo_signatures()
    assert cold == warm == capped == bypassed


def test_mobile_memo_runs_still_diverge_across_seeds():
    # Guard against the signatures degenerating into something seed-blind.
    assert _mobile_udp_signature(1) != _mobile_udp_signature(2)
    assert _chain_signature(1, False) != _chain_signature(2, False)


def test_repeated_runs_in_one_process_are_byte_identical():
    # Plans and offsets live on per-run objects; error probabilities live
    # in one process-wide memo of a pure function.  A second run in the
    # same process must not see any process-level leakage (e.g. a
    # module-global memo keyed on something seed-independent).
    assert _mobile_udp_signature(7) == _mobile_udp_signature(7)
    assert _chain_signature(7, False) == _chain_signature(7, False)


def test_stationary_campaign_across_pool_workers_matches_inline():
    # The stationary fast path (delivery plans cached per sender, error
    # probabilities memoised process-wide) must replicate byte for
    # byte in fresh pool workers, or the campaign cache would mix histories
    # across machines/processes.
    inline = CampaignRunner(jobs=1).run_campaign("table02", seeds=[1, 2],
                                                 overrides=TINY_TABLE02)
    pooled = CampaignRunner(jobs=2).run_campaign("table02", seeds=[1, 2],
                                                 overrides=TINY_TABLE02)
    assert pooled.replicas[1].to_dict() == inline.replicas[1].to_dict()
    assert pooled.replicas[2].to_dict() == inline.replicas[2].to_dict()
    assert pooled.aggregate.to_dict() == inline.aggregate.to_dict()
