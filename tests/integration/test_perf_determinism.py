"""Determinism of the hot-path optimisation layer.

The speed overhaul added several caches along the per-frame path: the
channel's per-link budget memo, the error model's probability memo and the
frame's sample-offset cache.  Every one of them is only sound if it changes
*when math runs*, never *which numbers come out* — this file pins that
contract in the nastiest configuration we can build (time-varying
shadowing + node mobility, where the memo must invalidate on both coherence
epochs and position changes), in-process and across campaign pool workers.
The memo is turned off by patching ``repro.channel.medium.LINK_BUDGET_MEMO``
while the channel is built.
"""

from __future__ import annotations

from unittest import mock

from repro.apps.cbr import CbrSource, UdpSink
from repro.campaign.runner import CampaignRunner
from repro.channel import medium
from repro.channel.medium import WirelessChannel
from repro.channel.propagation import LogNormalShadowing
from repro.core.policies import broadcast_aggregation
from repro.mobility.models import RandomWaypoint
from repro.phy.error_model import ErrorModel
from repro.sim.simulator import Simulator
from repro.topology.builders import build_linear_chain
from repro.units import mbps

DURATION = 3.0
TINY_TABLE02 = {"rates_mbps": (0.65,), "duration": 2.5}


def _mobile_udp_signature(seed: int, link_budget_memo: bool) -> str:
    """Full observable outcome of a mobile, time-varying-channel UDP run.

    Deliberately the worst case for the link-budget memo: log-normal
    shadowing redrawn every 0.5 s (coherence epochs) *and* a mobile relay
    (positions change under the memo), so a stale cache entry anywhere would
    shift a reception and change these counters.
    """
    sim = Simulator(seed=seed)
    propagation = LogNormalShadowing(sigma_db=4.0, coherence_time=0.5)
    with mock.patch.object(medium, "LINK_BUDGET_MEMO", link_budget_memo):
        channel = WirelessChannel(sim, propagation=propagation)
    network = build_linear_chain(sim, hops=2, policy=broadcast_aggregation(),
                                 unicast_rate_mbps=0.65, channel=channel)
    relay = network.node(2)
    relay.set_mobility(RandomWaypoint(area=(-5.0, -5.0, 10.0, 5.0),
                                      speed_range=(1.0, 3.0)),
                       stop_time=DURATION)
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
        [node.phy.frames_sent for node in network.nodes],
        [node.phy.frames_received for node in network.nodes],
        [node.phy.frames_collided for node in network.nodes],
        [node.phy.tx_airtime for node in network.nodes],
    ))


def test_link_budget_memo_is_invisible_on_mobile_time_varying_channel():
    # Memo on vs memo off must be byte-identical: the cache may only serve
    # entries whose (coherence epoch, tx position, rx position) key still
    # matches exactly, so mobility and epoch rollovers force recomputation.
    assert (_mobile_udp_signature(1, link_budget_memo=True)
            == _mobile_udp_signature(1, link_budget_memo=False))


def test_error_memo_cap_is_invisible_on_mobile_run(monkeypatch):
    # The per-PHY error-probability memo is cleared whenever it reaches its
    # cap; a cap of 1 clears it on nearly every miss, which must not change
    # a byte of a run whose moving links miss it most of the time.
    default = _mobile_udp_signature(1, link_budget_memo=True)
    monkeypatch.setattr(ErrorModel, "_CACHE_LIMIT", 1)
    assert _mobile_udp_signature(1, link_budget_memo=True) == default


def test_mobile_memo_runs_still_diverge_across_seeds():
    # Guard against the signature degenerating into something seed-blind.
    assert (_mobile_udp_signature(1, link_budget_memo=True)
            != _mobile_udp_signature(2, link_budget_memo=True))


def test_repeated_runs_in_one_process_are_byte_identical():
    # The probability/offset caches live on per-run objects, but a
    # second run in the same process must not see any process-level leakage
    # (e.g. a module-global memo keyed on something seed-independent).
    first = _mobile_udp_signature(7, link_budget_memo=True)
    second = _mobile_udp_signature(7, link_budget_memo=True)
    assert first == second


def test_stationary_campaign_across_pool_workers_matches_inline():
    # The stationary fast path (memoised link budgets validated by identity
    # of the static position tuples) must replicate byte for byte in fresh
    # pool workers, or the campaign cache would mix histories across
    # machines/processes.
    inline = CampaignRunner(jobs=1).run_campaign("table02", seeds=[1, 2],
                                                 overrides=TINY_TABLE02)
    pooled = CampaignRunner(jobs=2).run_campaign("table02", seeds=[1, 2],
                                                 overrides=TINY_TABLE02)
    assert pooled.replicas[1].to_dict() == inline.replicas[1].to_dict()
    assert pooled.replicas[2].to_dict() == inline.replicas[2].to_dict()
    assert pooled.aggregate.to_dict() == inline.aggregate.to_dict()
