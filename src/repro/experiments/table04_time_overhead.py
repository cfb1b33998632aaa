"""Table 4: relay-node time overhead as a function of the data rate.

The overhead (MAC/PHY header transmission time, control frames, backoff,
DIFS and SIFS) grows from ~22 % to ~52 % of the busy time as the rate rises
from 0.65 to 2.6 Mbps when no aggregation is used, and every aggregation
variant cuts it by a factor of 2.5–4x.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.apps.file_transfer import PAPER_FILE_BYTES
from repro.core.policies import (
    broadcast_aggregation,
    delayed_broadcast_aggregation,
    no_aggregation,
    unicast_aggregation,
)
from repro.experiments.scenarios import run_tcp_transfer
from repro.stats.results import ExperimentResult, TableResult

DEFAULT_RATES_MBPS = (0.65, 1.3, 1.95, 2.6)
VARIANT_ORDER = ("NA", "UA", "BA", "DBA")


def run(rates_mbps: Sequence[float] = DEFAULT_RATES_MBPS, hops: int = 2,
        file_bytes: int = PAPER_FILE_BYTES, seed: int = 1) -> ExperimentResult:
    """Relay-node time overhead (%) for each variant at each rate."""
    result = ExperimentResult(
        experiment_id="table4",
        description="2-hop relay node time overhead (%) vs data rate",
    )
    table = result.add_table(TableResult(title="rate (Mbps)", columns=list(VARIANT_ORDER)))

    policies = {
        "NA": (no_aggregation(), None),
        "UA": (unicast_aggregation(), None),
        "BA": (broadcast_aggregation(), None),
        "DBA": (broadcast_aggregation(), delayed_broadcast_aggregation()),
    }
    for rate in rates_mbps:
        row: Dict[str, float] = {}
        for name in VARIANT_ORDER:
            policy, relay_policy = policies[name]
            outcome = run_tcp_transfer(policy, hops=hops, rate_mbps=rate,
                                       file_bytes=file_bytes, seed=seed,
                                       relay_policy=relay_policy)
            relay = outcome.network.node(2).mac_stats
            row[name] = 100.0 * relay.time_overhead_fraction
            result.add_metric(f"time_overhead_{name}_{rate}", row[name])
        table.add_row(f"{rate}", [row[name] for name in VARIANT_ORDER])
    result.note("Paper (Table 4): NA overhead rises 22.4% -> 52.1% from 0.65 to 2.6 Mbps; "
                "UA/BA/DBA cut it to 6.7-24.8 / 5.8-19.9 / 5.2-17.7 %.")
    return result

#: Campaign registry hooks (see :mod:`repro.campaign.registry`).
EXPERIMENT_ID = "table04"
#: Reduced sweep used by campaign runs unless ``--full`` is given.
FAST_PARAMS = {"rates_mbps": (0.65, 1.3), "file_bytes": 40_000}
