"""Table 2 benchmark: 2-hop UDP throughput, no aggregation vs unicast aggregation."""

from __future__ import annotations

from bench_common import BENCH_UDP_DURATION, run_once

from repro.experiments import table02_udp_unicast


def test_table02_unicast_aggregation_improves_udp(benchmark):
    result = run_once(benchmark, table02_udp_unicast.run,
                      rates_mbps=(0.65, 1.3), duration=BENCH_UDP_DURATION)
    print(result.to_text())

    table = result.tables[0]
    for rate in ("0.65", "1.3"):
        assert table.cell(rate, "UA (Mbps)") > table.cell(rate, "NA (Mbps)")
    # The improvement grows with the data rate (paper: 7.9% -> 11.9%).
    assert result.metrics["improvement_percent_1.3"] > result.metrics["improvement_percent_0.65"]
