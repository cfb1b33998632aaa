"""Helpers that pull the paper's detailed-analysis metrics out of a scenario.

Tables 3–8 all report per-node MAC statistics at the end of a TCP transfer:
average frame size, number of transmissions (as a percentage of the
no-aggregation count), MAC+PHY size overhead and time overhead.  The MACs
accumulate the raw counters and derive the per-node metrics
(:class:`repro.mac.stats.MacStatistics`; the relay tables read node 2's);
these functions assemble them across nodes and variants.
"""

from __future__ import annotations

from typing import Dict

from repro.topology.network import Network


def node_frame_sizes(network: Network) -> Dict[int, float]:
    """Average DATA frame size per node (Table 8)."""
    return {node.index: node.mac_stats.average_frame_size for node in network.nodes}


def transmission_percentages(variant_transmissions: Dict[str, float]) -> Dict[str, float]:
    """Each variant's transmission count as a percentage of NA's (Tables 3 and 5-7).

    Every variant reads 0 when NA made no transmission.
    """
    base = variant_transmissions.get("NA", 0.0)
    if base <= 0:
        return {name: 0.0 for name in variant_transmissions}
    return {name: 100.0 * count / base for name, count in variant_transmissions.items()}
