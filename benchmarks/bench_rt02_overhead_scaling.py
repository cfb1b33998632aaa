"""rt02 benchmark: reactive overhead grows with flows, proactive stays flat."""

from __future__ import annotations

from bench_common import run_once

from repro.experiments import rt02_overhead_scaling

FLOW_COUNTS = (1, 6)
SPEED = 2.0


def test_rt02_overhead_scaling(benchmark):
    result = run_once(benchmark, rt02_overhead_scaling.run,
                      flow_counts=FLOW_COUNTS, speeds_mps=(SPEED,),
                      duration=8.0, warmup=3.0, include_no_aggregation=False)
    print(result.to_text())

    aodv_growth = result.metrics["aodv_ctrl_frac_growth"]
    dsdv_growth = result.metrics["dsdv_ctrl_frac_growth"]
    # The headline trade-off: splitting a fixed load across more destinations
    # costs AODV an expanding-ring discovery (and re-discovery, once the
    # per-flow packet spacing crosses the active-route lifetime) per flow,
    # while DSDV's beacons do not care how many pairs talk.
    assert aodv_growth > 0.03
    assert aodv_growth > abs(dsdv_growth) + 0.02
    assert result.metrics["static_ctrl_frac_growth"] == 0.0
    assert result.metrics["aodv_minus_dsdv_growth"] > 0.0

    static_ctrl = result.get_series(f"static BA @{SPEED:g}mps ctrl frac")
    assert all(value == 0.0 for value in static_ctrl.y_values)

    # AODV's always-on cost is only HELLO liveness, so at a single active
    # flow the reactive protocol is the cheaper control plane.
    aodv_ctrl = result.get_series(f"aodv BA @{SPEED:g}mps ctrl frac")
    dsdv_ctrl = result.get_series(f"dsdv BA @{SPEED:g}mps ctrl frac")
    assert aodv_ctrl.value_at(FLOW_COUNTS[0]) < dsdv_ctrl.value_at(FLOW_COUNTS[0])

    # Both dynamic protocols keep the mesh delivering despite mobility.
    for routing in ("aodv", "dsdv"):
        delivery = result.get_series(f"{routing} BA @{SPEED:g}mps delivery")
        assert min(delivery.y_values) > 0.6
