"""Tables 5-7: relay-node detail, 2-hop chain vs star topology.

At the star's central relay, TCP data frames of both sessions share a
destination (the client) while the reverse TCP ACKs are destined to two
different servers.  Unicast aggregation therefore gains nothing from the
extra traffic (Table 5: UA frame size is essentially unchanged), while
broadcast aggregation can combine the ACKs for both servers with the data
frames (frame size grows from ~2.7 KB to ~3.4 KB), lowering size overhead
(Table 6) and the relative number of transmissions (Table 7).
"""

from __future__ import annotations

from typing import Dict

from repro.apps.file_transfer import PAPER_FILE_BYTES
from repro.core.policies import broadcast_aggregation, no_aggregation, unicast_aggregation
from repro.experiments.scenarios import run_star_tcp, run_tcp_transfer
from repro.stats.collect import relay_detail, transmission_percentages
from repro.stats.results import ExperimentResult, TableResult


def run(rate_mbps: float = 1.3, file_bytes: int = PAPER_FILE_BYTES,
        seed: int = 1) -> ExperimentResult:
    """Relay frame size / size overhead / transmission percentages, 2-hop vs star."""
    result = ExperimentResult(
        experiment_id="table5_6_7",
        description="Relay node frame size, size overhead and transmissions: 2-hop vs star",
    )

    detail_2hop: Dict[str, Dict[str, float]] = {}
    detail_star: Dict[str, Dict[str, float]] = {}
    for name, policy in (("NA", no_aggregation()), ("UA", unicast_aggregation()),
                         ("BA", broadcast_aggregation())):
        chain = run_tcp_transfer(policy, hops=2, rate_mbps=rate_mbps,
                                 file_bytes=file_bytes, seed=seed)
        detail_2hop[name] = relay_detail(chain.network, relay_indices=[2])
        star = run_star_tcp(policy, rate_mbps=rate_mbps, file_bytes=file_bytes, seed=seed)
        detail_star[name] = relay_detail(star.network, relay_indices=[2])

    frame_size = result.add_table(TableResult(
        title="Table 5: frame size (B)", columns=["2-hop", "star"]))
    size_overhead = result.add_table(TableResult(
        title="Table 6: size overhead (%)", columns=["2-hop", "star"]))
    transmissions = result.add_table(TableResult(
        title="Table 7: transmissions (% of NA)", columns=["2-hop", "star"]))

    tx_2hop = transmission_percentages(
        {name: detail["transmissions"] for name, detail in detail_2hop.items()})
    tx_star = transmission_percentages(
        {name: detail["transmissions"] for name, detail in detail_star.items()})
    for name in ("UA", "BA"):
        frame_size.add_row(name, [detail_2hop[name]["average_frame_size"],
                                  detail_star[name]["average_frame_size"]])
        size_overhead.add_row(name, [100.0 * detail_2hop[name]["size_overhead"],
                                     100.0 * detail_star[name]["size_overhead"]])
        transmissions.add_row(name, [tx_2hop[name], tx_star[name]])
        result.add_metric(f"frame_size_2hop_{name}", detail_2hop[name]["average_frame_size"])
        result.add_metric(f"frame_size_star_{name}", detail_star[name]["average_frame_size"])

    ba_growth = (detail_star["BA"]["average_frame_size"]
                 - detail_2hop["BA"]["average_frame_size"])
    ua_growth = (detail_star["UA"]["average_frame_size"]
                 - detail_2hop["UA"]["average_frame_size"])
    result.add_metric("ba_star_frame_growth_bytes", ba_growth)
    result.add_metric("ua_star_frame_growth_bytes", ua_growth)
    result.note("Paper (Tables 5-7): UA frame size is flat (2662 -> 2651 B) while BA grows "
                "substantially (2727 -> 3432 B) in the star; BA transmissions drop from "
                "26.7% to 22.5% of NA.")
    return result

#: Campaign registry hooks (see :mod:`repro.campaign.registry`).
EXPERIMENT_ID = "table05_07"
#: Reduced sweep used by campaign runs unless ``--full`` is given.
FAST_PARAMS = {"file_bytes": 40_000}
