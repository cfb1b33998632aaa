#!/usr/bin/env python3
"""Two TCP sessions through a congested relay (the Figure 12 star scenario).

Nodes 3 and 4 each send a file to node 1 through the central relay (node 2).
At the relay, the TCP data of both sessions shares one next hop while the
reverse TCP ACKs are destined to two different servers — the case where only
broadcast aggregation (which does not require a common destination) can merge
everything into one transmission.

Run with::

    python examples/star_topology.py
"""

from __future__ import annotations

from repro import broadcast_aggregation, unicast_aggregation
from repro.experiments import run_star_tcp
from repro.units import megabytes


def main() -> None:
    rate_mbps = 1.3
    file_bytes = megabytes(0.2)
    print(f"Star topology, two 2-hop TCP sessions (3->1 and 4->1) at {rate_mbps} Mbps")
    print("-" * 72)
    for name, policy in (("UA", unicast_aggregation()), ("BA", broadcast_aggregation())):
        outcome = run_star_tcp(policy, rate_mbps=rate_mbps, file_bytes=file_bytes, seed=11)
        relay = outcome.network.node(2).mac_stats
        session_1, session_2 = outcome.session_throughputs_mbps
        print(f"\n{name}:")
        print(f"  session throughputs          : {session_1:.3f} / {session_2:.3f} Mbps")
        print(f"  worst-case session throughput: {outcome.worst_case_throughput_mbps:.3f} Mbps")
        print(f"  relay transmissions          : {relay.data_transmissions}")
        print(f"  relay average frame size     : {relay.average_frame_size:.0f} B")
        print(f"  relay subframes per frame    : {relay.average_subframes_per_frame:.2f}")


if __name__ == "__main__":
    main()
