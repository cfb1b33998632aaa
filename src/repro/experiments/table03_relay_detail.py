"""Table 3: detailed behaviour of the relay node in a 2-hop TCP transfer.

For NA, UA, BA and DBA the paper reports the relay's average frame size
(765 / 2662 / 2727 / 3477 bytes), the number of transmissions relative to NA
(100 / 33.7 / 26.7 / 21.1 %) and the MAC+PHY size overhead (15.1 / 6.83 /
6.55 / 5.8 %).  Aggregation should multiply the frame size by roughly the
aggregation ratio, cut transmissions by the same factor and shrink the header
overhead accordingly.
"""

from __future__ import annotations

from typing import Dict

from repro.apps.file_transfer import PAPER_FILE_BYTES
from repro.core.policies import (
    AggregationPolicy,
    broadcast_aggregation,
    delayed_broadcast_aggregation,
    no_aggregation,
    unicast_aggregation,
)
from repro.experiments.scenarios import TcpRunResult, run_tcp_transfer
from repro.mac.stats import MacStatistics
from repro.stats.collect import transmission_percentages
from repro.stats.results import ExperimentResult, TableResult

VARIANT_ORDER = ("NA", "UA", "BA", "DBA")


def _variants() -> Dict[str, AggregationPolicy]:
    return {
        "NA": no_aggregation(),
        "UA": unicast_aggregation(),
        "BA": broadcast_aggregation(),
        "DBA": broadcast_aggregation(),  # endpoints; relays get the delayed policy
    }


def _run_variant(name: str, policy: AggregationPolicy, hops: int, rate_mbps: float,
                 file_bytes: int, seed: int) -> TcpRunResult:
    relay_policy = delayed_broadcast_aggregation() if name == "DBA" else None
    return run_tcp_transfer(policy, hops=hops, rate_mbps=rate_mbps, file_bytes=file_bytes,
                            seed=seed, relay_policy=relay_policy)


def run(rate_mbps: float = 1.3, hops: int = 2, file_bytes: int = PAPER_FILE_BYTES,
        seed: int = 1) -> ExperimentResult:
    """Relay-node frame size, transmission percentage and size overhead for each variant."""
    result = ExperimentResult(
        experiment_id="table3",
        description="2-hop relay node detail (frame size, transmissions, size overhead)",
    )
    table = result.add_table(TableResult(
        title="variant",
        columns=["frame size (B)", "total TXs (% of NA)", "size overhead (%)",
                 "throughput (Mbps)"]))

    relays: Dict[str, MacStatistics] = {}
    throughputs: Dict[str, float] = {}
    for name, policy in _variants().items():
        outcome = _run_variant(name, policy, hops, rate_mbps, file_bytes, seed)
        relays[name] = outcome.network.node(2).mac_stats
        throughputs[name] = outcome.throughput_mbps

    percentages = transmission_percentages(
        {name: relay.data_transmissions for name, relay in relays.items()})
    for name in VARIANT_ORDER:
        relay = relays[name]
        tx_percent = percentages[name]
        size_overhead_percent = 100.0 * relay.size_overhead_fraction
        table.add_row(name, [relay.average_frame_size, tx_percent,
                             size_overhead_percent, throughputs[name]])
        result.add_metric(f"frame_size_{name}", relay.average_frame_size)
        result.add_metric(f"tx_percent_{name}", tx_percent)
        result.add_metric(f"size_overhead_percent_{name}", size_overhead_percent)
    result.note("Paper (Table 3): frame sizes 765/2662/2727/3477 B, transmissions "
                "100/33.7/26.7/21.1 %, size overhead 15.1/6.83/6.55/5.8 % for NA/UA/BA/DBA.")
    return result

#: Campaign registry hooks (see :mod:`repro.campaign.registry`).
EXPERIMENT_ID = "table03"
#: Reduced sweep used by campaign runs unless ``--full`` is given.
FAST_PARAMS = {"file_bytes": 40_000}
