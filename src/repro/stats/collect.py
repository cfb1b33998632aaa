"""Helpers that pull the paper's detailed-analysis metrics out of a scenario.

Tables 3–8 all report per-node MAC statistics at the end of a TCP transfer:
average frame size, number of transmissions (as a percentage of the
no-aggregation count), MAC+PHY size overhead and time overhead.  The MACs
accumulate the raw counters (:class:`repro.mac.stats.MacStatistics`); these
functions assemble them per node / per network.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.topology.network import Network


def relay_detail(network: Network, relay_indices: Iterable[int]) -> Dict[str, float]:
    """Frame-size / transmission / overhead summary over the given relay nodes.

    This is the quantity Table 3 (2-hop) and Tables 5–7 (star) report: the
    behaviour of the relay node(s) in the middle of the path.
    """
    relays = [network.node(i) for i in relay_indices]
    total_tx = sum(node.mac_stats.data_transmissions for node in relays)
    frame_bytes = sum(node.mac_stats.data_frame_bytes for node in relays)
    average_size = frame_bytes / total_tx if total_tx else 0.0

    payload = sum(node.mac_stats.payload_bytes_sent for node in relays)
    overhead = sum(node.mac_stats.mac_overhead_bytes_sent
                   + node.mac_stats.phy_header_bytes_equivalent for node in relays)
    size_overhead = overhead / (payload + overhead) if (payload + overhead) > 0 else 0.0

    payload_time = sum(node.mac_stats.payload_airtime for node in relays)
    overhead_time = sum(node.mac_stats.header_airtime + node.mac_stats.control_airtime
                        + node.mac_stats.ifs_airtime + node.mac_stats.contention_airtime
                        for node in relays)
    time_overhead = (overhead_time / (payload_time + overhead_time)
                     if (payload_time + overhead_time) > 0 else 0.0)

    return {
        "transmissions": float(total_tx),
        "average_frame_size": average_size,
        "size_overhead": size_overhead,
        "time_overhead": time_overhead,
        "average_subframes_per_frame": (
            sum(node.mac_stats.data_frame_subframes for node in relays) / total_tx
            if total_tx else 0.0),
    }


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
