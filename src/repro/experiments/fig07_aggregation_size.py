"""Figure 7: throughput as a function of the maximum aggregation size.

A saturating UDP flow over a single hop, sweeping the MAC's maximum
aggregation size at several PHY rates.  The paper observes that throughput
rises with the aggregation size up to a threshold (~120 Ksamples worth of
payload: 5 KB at 0.65 Mbps, ~11 KB at 1.3 Mbps, ~15 KB at 1.95 Mbps) and then
collapses towards zero because subframes transmitted beyond the channel
coherence limit fail their CRCs and the whole unicast portion is discarded.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.policies import unicast_aggregation
from repro.experiments.scenarios import run_udp_saturation
from repro.stats.results import ExperimentResult, Series
from repro.units import kilobytes

DEFAULT_RATES_MBPS = (0.65, 1.3, 1.95)
DEFAULT_SIZES_KB = (2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 18)


def run(rates_mbps: Sequence[float] = DEFAULT_RATES_MBPS,
        sizes_kb: Iterable[float] = DEFAULT_SIZES_KB,
        duration: float = 15.0, seed: int = 1) -> ExperimentResult:
    """Sweep the maximum aggregation size for each rate over a 1-hop UDP flow."""
    result = ExperimentResult(
        experiment_id="figure7",
        description="Throughput vs maximum aggregation size (1-hop saturating UDP)",
    )
    for rate in rates_mbps:
        series = result.add_series(Series(label=f"{rate} Mbps"))
        for size_kb in sizes_kb:
            policy = unicast_aggregation(max_aggregate_bytes=kilobytes(size_kb))
            outcome = run_udp_saturation(policy, hops=1, rate_mbps=rate,
                                         duration=duration, seed=seed)
            series.add(size_kb, outcome.throughput_mbps)
        peak_index = series.y_values.index(series.peak)
        result.add_metric(f"peak_size_kb_{rate}", series.x_values[peak_index])
    result.note("The paper reports thresholds of 5/11/15 KB at 0.65/1.3/1.95 Mbps "
                "(all ~120 Ksamples), with throughput collapsing beyond them.")
    return result

#: Campaign registry hooks (see :mod:`repro.campaign.registry`).
EXPERIMENT_ID = "fig07"
#: Reduced sweep used by campaign runs unless ``--full`` is given.
FAST_PARAMS = {"rates_mbps": (0.65,), "sizes_kb": (2, 4, 6, 8), "duration": 4.0}
