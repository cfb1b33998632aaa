"""Differential proof that the spatial index changes speed, never bytes.

Above ``AUTO_SPATIAL_THRESHOLD`` registered PHYs, on a channel where no
PHY carries a mobility model, the channel swaps candidate *enumeration* —
exhaustive scan for uniform-grid lookup — while a detect-floor cull
applied identically on both paths decides who actually hears each frame.
If that contract holds, a grid-indexed run is byte-for-byte identical to a
full-scan run of the same seed: same series, same metrics, same counters.
There is no switch to pick a path, so every case runs twice, at the
default threshold and with ``repro.channel.medium.AUTO_SPATIAL_THRESHOLD``
patched to the other side:

* every covered experiment family sits below the threshold by default:
  fig09 (stationary chains), rt02 (AODV mesh), mob03 (DSDV mesh) and mob01
  (flooding and UDP under shadowing), the last three at speed 0, where
  they build their meshes without models; patching the threshold to 0
  forces the grid, and the two runs are compared via
  ``ExperimentResult.to_dict()`` — the full observable output;
* an 80-node city sits above it by default (the grid), unshadowed and
  shadowed; patching it to a huge value forces the scan;
* every comparison asserts which path really ran — in-process, the grid
  side called ``UniformGridIndex.candidates`` and the scan side never did;
  in pool workers, the grid side's candidates fraction is below 1.0 — so
  none can pass vacuously;
* the same experiments with moving nodes never reach the grid, even with
  the threshold patched to 0: a channel holding a model always scans;
* city01 campaigns above the threshold replicate across pool workers,
  proving the index also replicates in fresh processes (where any
  ordering derived from ``id()`` or set iteration would come unstuck).
"""

from __future__ import annotations

import pytest

from repro.campaign.runner import CampaignRunner
from repro.channel import medium
from repro.channel.spatial import UniformGridIndex
from repro.core.policies import broadcast_aggregation
from repro.experiments import (
    fig09_udp_flooding,
    mob01_flooding_mobility,
    mob03_mesh_routing,
    rt02_overhead_scaling,
)
from repro.net.flooding import FloodingSource
from repro.sim.simulator import Simulator
from repro.topology.city import populate_city
from repro.topology.network import Network

#: Threshold values that force one side: 0 puts any scenario on the grid,
#: the huge value keeps any city on the scan.
FORCE_GRID = 0
FORCE_SCAN = 10 ** 9

# Reduced parameter sets: one sweep point each, long enough for real
# contention, short enough that running every family twice stays cheap.
FIG09_PARAMS = {"rates_mbps": (0.65,), "flooding_intervals": (0.5,),
                "duration": 1.5}
MOB01_PARAMS = {"speeds_mps": (2.0,), "node_count": 5, "duration": 2.0,
                "flooding_interval": 0.25}
MOB03_PARAMS = {"speeds_mps": (2.0,), "grid_side": 2, "duration": 4.0,
                "warmup": 2.0, "include_no_aggregation": False}
RT02_PARAMS = {"flow_counts": (1,), "speeds_mps": (2.0,),
               "routings": ("aodv",), "duration": 5.0, "warmup": 2.0,
               "include_no_aggregation": False}
#: At speed 0 these experiments build their nodes without models.
STATIC = {"speeds_mps": (0.0,)}
#: A 100-node city: above the threshold, so campaigns run on the grid.
CITY01_PARAMS = {"node_counts": (100,), "flow_count": 10, "duration": 1.5,
                 "warmup": 0.5}

CASES = [
    pytest.param(fig09_udp_flooding, FIG09_PARAMS, id="fig09-stationary"),
    pytest.param(rt02_overhead_scaling, {**RT02_PARAMS, **STATIC},
                 id="rt02-aodv-static-mesh"),
    pytest.param(mob01_flooding_mobility, {**MOB01_PARAMS, **STATIC},
                 id="mob01-static-shadowing"),
    pytest.param(mob03_mesh_routing, {**MOB03_PARAMS, **STATIC},
                 id="mob03-dsdv-static-mesh"),
]

#: The same experiments with moving nodes: they never reach the grid.
MOBILE_CASES = [
    pytest.param(rt02_overhead_scaling, RT02_PARAMS, id="rt02-aodv-mesh"),
    pytest.param(mob01_flooding_mobility, MOB01_PARAMS,
                 id="mob01-mobile-shadowing"),
    pytest.param(mob03_mesh_routing, MOB03_PARAMS, id="mob03-dsdv-mesh"),
]


def _run_side(run, threshold=None):
    """``run()`` with the threshold optionally patched.

    Returns its output and how many grid queries it made.
    """
    queries = []
    candidates = UniformGridIndex.candidates

    def counted(index, origin, range_m):
        queries.append(origin)
        return candidates(index, origin, range_m)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(UniformGridIndex, "candidates", counted)
        if threshold is not None:
            patch.setattr(medium, "AUTO_SPATIAL_THRESHOLD", threshold)
        output = run()
    return output, len(queries)


@pytest.mark.parametrize("module, params", CASES)
def test_grid_indexed_run_is_byte_identical_to_full_scan(module, params):
    # to_dict() is the experiment's entire observable output (series points,
    # metrics, notes); equality here means no float anywhere differed.
    scan, scan_queries = _run_side(
        lambda: module.run(seed=3, **params).to_dict())
    grid, grid_queries = _run_side(
        lambda: module.run(seed=3, **params).to_dict(), threshold=FORCE_GRID)
    assert scan_queries == 0
    assert grid_queries > 0
    assert grid == scan


@pytest.mark.parametrize("module, params", MOBILE_CASES)
def test_runs_with_moving_nodes_scan_even_below_a_forced_threshold(module, params):
    default, default_queries = _run_side(
        lambda: module.run(seed=3, **params).to_dict())
    forced, forced_queries = _run_side(
        lambda: module.run(seed=3, **params).to_dict(), threshold=FORCE_GRID)
    assert default_queries == forced_queries == 0
    assert forced == default


@pytest.mark.parametrize("module, params",
                         [pytest.param(fig09_udp_flooding, FIG09_PARAMS,
                                       id="fig09")])
def test_differential_runs_still_diverge_across_seeds(module, params):
    # Guard against the comparison degenerating into something seed-blind.
    seed3, _ = _run_side(lambda: module.run(seed=3, **params).to_dict(),
                         threshold=FORCE_GRID)
    seed4, _ = _run_side(lambda: module.run(seed=4, **params).to_dict(),
                         threshold=FORCE_GRID)
    assert seed3 != seed4


def _city_flood_signature(seed: int, shadowing_sigma_db: float = 0.0) -> str:
    """Full observable outcome of an 80-node flooding run.

    80 nodes sits *above* AUTO_SPATIAL_THRESHOLD (64), so the default run
    takes the grid path — comparing it against a forced scan proves the
    switchover is byte-neutral exactly where it engages.
    """
    sim = Simulator(seed=seed)
    network = Network(sim, policy=broadcast_aggregation(), unicast_rate_mbps=0.65,
                      shadowing_sigma_db=shadowing_sigma_db)
    nodes = populate_city(network, 80)
    flooders = []
    for node in nodes[::13]:
        flooder = FloodingSource(sim, node.network, node.ip, interval=0.2,
                                 payload_bytes=64)
        flooder.start()
        flooders.append(flooder)
    sim.run(until=1.0)
    return repr((
        [flooder.packets_sent for flooder in flooders],
        [node.network.stats.delivered_broadcast for node in nodes],
        [node.phy.frames_sent for node in nodes],
        [node.phy.frames_received for node in nodes],
        [node.phy.frames_collided for node in nodes],
    ))


def test_auto_threshold_crossing_is_byte_neutral():
    grid, grid_queries = _run_side(lambda: _city_flood_signature(5))
    scan, scan_queries = _run_side(lambda: _city_flood_signature(5),
                                   threshold=FORCE_SCAN)
    assert grid_queries > 0
    assert scan_queries == 0
    assert grid == scan


def test_auto_threshold_crossing_is_byte_neutral_under_shadowing():
    # Every link carries its own offset and the reach widens by the
    # shadowing clamp: the grid must still keep every receiver the scan
    # hears, and drop only culled ones.
    grid, grid_queries = _run_side(lambda: _city_flood_signature(5, 4.0))
    scan, scan_queries = _run_side(lambda: _city_flood_signature(5, 4.0),
                                   threshold=FORCE_SCAN)
    assert grid_queries > 0
    assert scan_queries == 0
    assert grid == scan
    assert grid != _city_flood_signature(5)


def test_auto_signature_still_diverges_across_seeds():
    assert _city_flood_signature(5) != _city_flood_signature(6)


def _candidates_fractions(result) -> list:
    """Every candidates fraction a city01 replica reports."""
    return ([result.metrics["candidates_fraction_max_n"]]
            + [y for label, series in sorted(result.series.items())
               if label.endswith("cand frac") for y in series.y_values])


def _without_candidates(result) -> dict:
    """A city01 replica's output minus its candidates fractions.

    The fraction measures the enumeration itself (1.0 on the scan path), so
    it is the one output that legitimately differs between the two paths.
    """
    data = result.to_dict()
    data["series"] = {label: series for label, series in data["series"].items()
                      if not label.endswith("cand frac")}
    data["metrics"] = {name: value for name, value in data["metrics"].items()
                       if name != "candidates_fraction_max_n"}
    return data


def test_grid_campaign_across_pool_workers_matches_inline():
    # The grid index is rebuilt from scratch in every pool worker; candidate
    # order must come out identical there (registration order), or replicas
    # would diverge from the inline run.
    inline = CampaignRunner(jobs=1).run_campaign("city01", seeds=[1, 2],
                                                 overrides=CITY01_PARAMS)
    pooled = CampaignRunner(jobs=2).run_campaign("city01", seeds=[1, 2],
                                                 overrides=CITY01_PARAMS)
    for seed in (1, 2):
        # Below 1.0 means the workers pruned with the grid, not a full scan.
        assert max(_candidates_fractions(pooled.replicas[seed])) < 1.0
        assert pooled.replicas[seed].to_dict() == inline.replicas[seed].to_dict()
    assert pooled.aggregate.to_dict() == inline.aggregate.to_dict()


def test_scan_and_grid_campaigns_agree_across_pool_workers():
    # The grid side runs in pool workers at the default threshold; the scan
    # side runs inline with the threshold patched, because a patch reaches
    # a pool worker only when the platform forks it.
    grid = CampaignRunner(jobs=2).run_campaign("city01", seeds=[1, 2],
                                               overrides=CITY01_PARAMS)
    scan, scan_queries = _run_side(
        lambda: CampaignRunner(jobs=1).run_campaign(
            "city01", seeds=[1, 2], overrides=CITY01_PARAMS),
        threshold=FORCE_SCAN)
    assert scan_queries == 0
    for seed in (1, 2):
        assert set(_candidates_fractions(scan.replicas[seed])) == {1.0}
        assert max(_candidates_fractions(grid.replicas[seed])) < 1.0
        assert (_without_candidates(grid.replicas[seed])
                == _without_candidates(scan.replicas[seed]))
