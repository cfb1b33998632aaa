"""Figure 10: TCP ACK aggregation with a *fixed* broadcast rate.

The broadcast portion (which carries the classified TCP ACKs) is pinned to
0.65, 1.3 or 2.6 Mbps while the unicast rate is swept.  A slow pinned
broadcast rate wins only while the unicast rate is comparable; once the
unicast rate exceeds it, the time spent transmitting the slow broadcast ACKs
dominates and BA falls back to (or below) plain unicast aggregation.
"""

from __future__ import annotations

from typing import Sequence

from repro.apps.file_transfer import PAPER_FILE_BYTES
from repro.core.policies import broadcast_aggregation, unicast_aggregation
from repro.experiments.scenarios import run_tcp_transfer
from repro.stats.results import ExperimentResult, Series

DEFAULT_UNICAST_RATES_MBPS = (0.65, 1.3, 1.95, 2.6)
DEFAULT_BROADCAST_RATES_MBPS = (0.65, 1.3, 2.6)


def run(unicast_rates_mbps: Sequence[float] = DEFAULT_UNICAST_RATES_MBPS,
        broadcast_rates_mbps: Sequence[float] = DEFAULT_BROADCAST_RATES_MBPS,
        hops: int = 2, file_bytes: int = PAPER_FILE_BYTES, seed: int = 1) -> ExperimentResult:
    """Sweep the unicast rate for UA and for BA with each pinned broadcast rate."""
    result = ExperimentResult(
        experiment_id="figure10",
        description="2-hop TCP throughput: BA with fixed broadcast rates vs UA",
    )
    ua_series = result.add_series(Series(label="UA"))
    for rate in unicast_rates_mbps:
        ua = run_tcp_transfer(unicast_aggregation(), hops=hops, rate_mbps=rate,
                              file_bytes=file_bytes, seed=seed)
        ua_series.add(rate, ua.throughput_mbps)

    for broadcast_rate in broadcast_rates_mbps:
        series = result.add_series(Series(label=f"BA (bcast {broadcast_rate} Mbps)"))
        for rate in unicast_rates_mbps:
            ba = run_tcp_transfer(broadcast_aggregation(), hops=hops, rate_mbps=rate,
                                  broadcast_rate_mbps=broadcast_rate,
                                  file_bytes=file_bytes, seed=seed)
            series.add(rate, ba.throughput_mbps)
        # Record where this pinned rate stops beating UA.
        advantage = [ba_y - ua_y for ba_y, ua_y in zip(series.y_values, ua_series.y_values)]
        result.add_metric(f"advantage_at_max_rate_bcast_{broadcast_rate}", advantage[-1])
        result.add_metric(f"advantage_at_min_rate_bcast_{broadcast_rate}", advantage[0])
    result.note("Paper: BA(0.65) only helps at 0.65 Mbps unicast; BA(1.3) helps up to "
                "1.3 Mbps; BA(2.6) helps across the whole range.")
    return result

#: Campaign registry hooks (see :mod:`repro.campaign.registry`).
EXPERIMENT_ID = "fig10"
#: Reduced sweep used by campaign runs unless ``--full`` is given.
FAST_PARAMS = {"unicast_rates_mbps": (0.65, 1.3), "broadcast_rates_mbps": (1.3,), "file_bytes": 40_000}
