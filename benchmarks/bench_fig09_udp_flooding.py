"""Figure 9 benchmark: 2-hop UDP throughput under flooding, aggregation vs none."""

from __future__ import annotations

from bench_common import BENCH_UDP_DURATION, run_once

from repro.experiments import fig09_udp_flooding


def test_fig09_aggregation_absorbs_flooding_overhead(benchmark):
    result = run_once(benchmark, fig09_udp_flooding.run,
                      rates_mbps=(1.3,), flooding_intervals=(0.25, 1.0, 5.0),
                      duration=BENCH_UDP_DURATION)
    print(result.to_text())

    aggregated = result.get_series("aggregation 1.3 Mbps")
    plain = result.get_series("no aggregation 1.3 Mbps")
    # Aggregation wins at every flooding interval.
    for interval in (0.25, 1.0, 5.0):
        assert aggregated.value_at(interval) > plain.value_at(interval)
    # The gap grows as the flooding interval shrinks (more flooding pressure).
    gap_heavy = aggregated.value_at(0.25) - plain.value_at(0.25)
    gap_light = aggregated.value_at(5.0) - plain.value_at(5.0)
    assert gap_heavy > gap_light
    # Flooding hurts the unaggregated stack more than the aggregated one.
    assert plain.value_at(0.25) < plain.value_at(5.0)
