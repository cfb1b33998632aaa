"""Seed determinism of the scenario runners, and the warmup regression.

The campaign layer replicates experiments across seeds and processes, which
is only sound if (a) the same seed always produces byte-identical results and
(b) different seeds actually explore different random trajectories.  The
mobile scenarios (trajectories, per-link shadowing draws) are held to the
same contract, in-process and across pool workers.
"""

from __future__ import annotations

import pytest

from repro.campaign.runner import CampaignRunner
from repro.core.policies import broadcast_aggregation, unicast_aggregation
from repro.experiments import (
    mob01_flooding_mobility,
    mob02_tcp_handoff,
    mob03_mesh_routing,
    mob04_relay_failover,
    rt01_control_overhead,
    rt02_overhead_scaling,
)
from repro.experiments import scenarios
from repro.experiments.scenarios import (
    UDP_WARMUP_S,
    run_star_tcp,
    run_tcp_transfer,
    run_udp_saturation,
)
from repro.units import throughput_mbps

FILE_BYTES = 30_000
UDP_DURATION = 3.0

#: Reduced mobile-scenario parameters (see the modules' FAST_PARAMS for the
#: campaign-scale sweeps; these are smaller still to keep this file quick).
TINY_MOB01 = {"speeds_mps": (3.0,), "node_count": 4, "duration": 1.5,
              "flooding_interval": 0.25}
TINY_MOB02 = {"orbit_periods": (6.0,), "file_bytes": 15_000, "max_sim_time": 15.0,
              "include_no_aggregation": False, "include_stationary_baseline": False}
TINY_MOB03 = {"speeds_mps": (3.0,), "grid_side": 2, "duration": 4.0, "warmup": 1.5,
              "include_no_aggregation": False}
TINY_MOB04 = {"orbit_periods": (10.0,), "duration": 12.0, "warmup": 1.5,
              "cbr_interval": 0.1, "include_static_baseline": False}
TINY_RT01 = {"hello_intervals_s": (0.5,), "duration": 4.0, "warmup": 1.5,
             "include_no_aggregation": False}
#: AODV only: the mobile byte-identical-per-seed contract must hold for the
#: on-demand control plane too (RREQ jitter, ring timers, expiry ordering).
TINY_RT02 = {"routings": ("aodv",), "flow_counts": (1, 2), "speeds_mps": (2.0,),
             "grid_side": 2, "duration": 5.0, "warmup": 2.0,
             "include_no_aggregation": False}


def _tcp_signature(seed: int) -> str:
    result = run_tcp_transfer(unicast_aggregation(), file_bytes=FILE_BYTES, seed=seed)
    return repr((result.throughput_mbps, result.completion_time,
                 result.receiver.bytes_received, result.complete))


def _udp_signature(seed: int) -> str:
    result = run_udp_saturation(broadcast_aggregation(), duration=UDP_DURATION,
                                flooding_interval=0.5, seed=seed)
    return repr((result.throughput_mbps, result.packets_received,
                 result.sink.bytes_received, result.warmup_bytes,
                 result.sink.first_arrival, result.sink.last_arrival))


def _star_signature(seed: int) -> str:
    result = run_star_tcp(unicast_aggregation(), file_bytes=FILE_BYTES, seed=seed)
    return repr((result.session_throughputs_mbps,
                 [receiver.bytes_received for receiver in result.receivers],
                 [receiver.completion_time for receiver in result.receivers]))


def _mob01_signature(seed: int) -> str:
    return repr(mob01_flooding_mobility.run(**TINY_MOB01, seed=seed).to_dict())


def _mob02_signature(seed: int) -> str:
    return repr(mob02_tcp_handoff.run(**TINY_MOB02, seed=seed).to_dict())


def _mob03_signature(seed: int) -> str:
    return repr(mob03_mesh_routing.run(**TINY_MOB03, seed=seed).to_dict())


def _mob04_signature(seed: int) -> str:
    return repr(mob04_relay_failover.run(**TINY_MOB04, seed=seed).to_dict())


def _rt01_signature(seed: int) -> str:
    return repr(rt01_control_overhead.run(**TINY_RT01, seed=seed).to_dict())


def _rt02_signature(seed: int) -> str:
    return repr(rt02_overhead_scaling.run(**TINY_RT02, seed=seed).to_dict())


ALL_SIGNATURES = [_tcp_signature, _udp_signature, _star_signature,
                  _mob01_signature, _mob02_signature, _mob03_signature,
                  _mob04_signature, _rt01_signature, _rt02_signature]
SIGNATURE_IDS = ["tcp_transfer", "udp_saturation", "star_tcp",
                 "mob01_flooding_mobility", "mob02_tcp_handoff",
                 "mob03_mesh_routing", "mob04_relay_failover",
                 "rt01_control_overhead", "rt02_aodv_overhead_scaling"]


@pytest.mark.parametrize("signature", ALL_SIGNATURES, ids=SIGNATURE_IDS)
def test_same_seed_runs_are_byte_identical(signature):
    assert signature(1) == signature(1)


@pytest.mark.parametrize("signature", ALL_SIGNATURES, ids=SIGNATURE_IDS)
def test_different_seeds_diverge(signature):
    assert signature(1) != signature(2)


@pytest.mark.parametrize("experiment_id,overrides", [
    ("mob01", TINY_MOB01),
    ("mob04", TINY_MOB04),
    ("rt02", TINY_RT02),
], ids=["mob01_mobility", "mob04_dynamic_routing", "rt02_aodv_routing"])
def test_mobile_campaign_across_pool_workers_matches_inline(experiment_id, overrides):
    # Mobility draws (trajectories, shadowing) and the routing control planes
    # (HELLO jitter, advertisement jitter, AODV rebroadcast jitter and ring
    # timers, expiry ordering) must replicate byte for byte in a fresh worker
    # process, or the campaign cache would mix histories.
    inline = CampaignRunner(jobs=1).run_campaign(experiment_id, seeds=[1, 2],
                                                 overrides=overrides)
    pooled = CampaignRunner(jobs=2).run_campaign(experiment_id, seeds=[1, 2],
                                                 overrides=overrides)
    assert pooled.replicas[1].to_dict() == inline.replicas[1].to_dict()
    assert pooled.replicas[2].to_dict() == inline.replicas[2].to_dict()
    assert pooled.aggregate.to_dict() == inline.aggregate.to_dict()


# ---------------------------------------------------------------------------
# Warmup regression: the warmup used to be dead (scenarios.py overwrote the
# warmup-adjusted throughput with the full-window value).
# ---------------------------------------------------------------------------

def _udp_run_with_warmup(monkeypatch, warmup, duration):
    monkeypatch.setattr(scenarios, "UDP_WARMUP_S", warmup)
    return run_udp_saturation(unicast_aggregation(), duration=duration, seed=3)


def test_udp_warmup_parameter_affects_throughput(monkeypatch):
    short = _udp_run_with_warmup(monkeypatch, 0.5, duration=4.0)
    long = _udp_run_with_warmup(monkeypatch, 2.0, duration=4.0)
    # Same simulation either way (same seed, same horizon) — only the
    # measurement window differs, so a live warmup must move the reported
    # number.
    assert short.sink.bytes_received == long.sink.bytes_received
    assert short.throughput_mbps != long.throughput_mbps


def test_udp_throughput_counts_only_post_warmup_bytes():
    warmup, duration = UDP_WARMUP_S, 4.0
    result = run_udp_saturation(unicast_aggregation(), duration=duration, seed=3)
    assert result.warmup_bytes > 0
    assert result.warmup_bytes < result.sink.bytes_received
    expected = throughput_mbps(result.sink.bytes_received - result.warmup_bytes,
                               duration - warmup)
    assert result.throughput_mbps == pytest.approx(expected)


def test_udp_sink_rejects_unsnapshotted_window_start():
    # Measuring from an arbitrary start would silently count pre-window bytes
    # (the original warmup bug); without a snapshot it must refuse instead.
    from repro.errors import ConfigurationError
    result = run_udp_saturation(unicast_aggregation(), duration=2.0, seed=3)
    with pytest.raises(ConfigurationError, match="snapshot"):
        result.sink.throughput_mbps(measurement_start=0.123)
    # Same protection for the window end: a past, unsnapshotted end time
    # cannot be measured after the fact.
    with pytest.raises(ConfigurationError, match="snapshot"):
        result.sink.throughput_mbps(measurement_start=0.0, measurement_end=0.5)


def test_udp_zero_warmup_measures_full_window(monkeypatch):
    duration = 3.0
    result = _udp_run_with_warmup(monkeypatch, 0.0, duration=duration)
    assert result.warmup_bytes == 0
    assert result.throughput_mbps == pytest.approx(
        throughput_mbps(result.sink.bytes_received, duration))
