"""Figure 9: 2-hop UDP throughput under flooding.

Every node generates broadcast (flooding) frames at a fixed interval while a
saturating UDP flow crosses the 2-hop chain.  With aggregation enabled
(unicast + broadcast aggregation), the flooding frames ride along with the
data frames, so shrinking the flooding interval costs far less throughput
than it does without aggregation.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.policies import broadcast_aggregation, no_aggregation
from repro.experiments.scenarios import run_udp_saturation
from repro.stats.results import ExperimentResult, Series

DEFAULT_RATES_MBPS = (0.65, 1.3)
DEFAULT_FLOOD_INTERVALS_S = (0.25, 0.5, 1.0, 2.0, 5.0)


def run(rates_mbps: Sequence[float] = DEFAULT_RATES_MBPS,
        flooding_intervals: Sequence[float] = DEFAULT_FLOOD_INTERVALS_S,
        duration: float = 20.0, flooding_payload_bytes: int = 64,
        seed: int = 1) -> ExperimentResult:
    """Sweep the flooding interval for aggregation vs no aggregation at each rate."""
    result = ExperimentResult(
        experiment_id="figure9",
        description="2-hop UDP throughput vs flooding interval, aggregation vs none",
    )
    for rate in rates_mbps:
        agg_series = result.add_series(Series(label=f"aggregation {rate} Mbps"))
        none_series = result.add_series(Series(label=f"no aggregation {rate} Mbps"))
        for interval in flooding_intervals:
            agg = run_udp_saturation(broadcast_aggregation(), hops=2, rate_mbps=rate,
                                     duration=duration, flooding_interval=interval,
                                     flooding_payload_bytes=flooding_payload_bytes, seed=seed)
            none = run_udp_saturation(no_aggregation(), hops=2, rate_mbps=rate,
                                      duration=duration, flooding_interval=interval,
                                      flooding_payload_bytes=flooding_payload_bytes, seed=seed)
            agg_series.add(interval, agg.throughput_mbps)
            none_series.add(interval, none.throughput_mbps)
        # The gap at the smallest interval should exceed the gap at the largest.
        smallest_gap = agg_series.y_values[0] - none_series.y_values[0]
        largest_gap = agg_series.y_values[-1] - none_series.y_values[-1]
        result.add_metric(f"gap_at_smallest_interval_{rate}", smallest_gap)
        result.add_metric(f"gap_at_largest_interval_{rate}", largest_gap)
    result.note("Paper: the performance gap between aggregation and no aggregation "
                "increases as the flooding interval decreases.")
    return result

#: Campaign registry hooks (see :mod:`repro.campaign.registry`).
EXPERIMENT_ID = "fig09"
#: Reduced sweep used by campaign runs unless ``--full`` is given.
FAST_PARAMS = {"rates_mbps": (0.65,), "flooding_intervals": (0.5, 2.0), "duration": 4.0}
