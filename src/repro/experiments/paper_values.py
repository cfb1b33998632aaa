"""The numbers the paper reports, for side-by-side comparison.

Only the values printed in the paper's tables (and the qualitative claims
made about its figures) are recorded here; ``python -m repro.campaign run
<id> --full`` produces what the reproduction measures for the same table or
figure.  Absolute throughputs from the prototype are
not expected to match a simulator — the comparison targets are orderings,
ratios and threshold positions.
"""

from __future__ import annotations

PAPER_VALUES = {
    # Table 2: 2-hop UDP throughput (Mbps) and improvement of UA over NA.
    "table2": {
        "rates_mbps": [0.65, 1.3],
        "no_aggregation_mbps": {0.65: 0.253, 1.3: 0.430},
        "unicast_aggregation_mbps": {0.65: 0.273, 1.3: 0.481},
        "improvement_percent": {0.65: 7.9, 1.3: 11.9},
    },
    # Figure 7: throughput vs maximum aggregation size; thresholds in KB.
    "figure7": {
        "threshold_kb": {0.65: 5, 1.3: 11, 1.95: 15},
        "threshold_samples": 120_000,
        "chosen_max_aggregation_kb": 5,
    },
    # Figure 8: TCP throughput improves with UA over NA for 2- and 3-hop, and
    # the improvement grows with the data rate.
    "figure8": {"qualitative": "UA > NA at every rate; gap grows with rate"},
    # Figure 9: with flooding, the aggregation-vs-none gap grows as the
    # flooding interval shrinks.
    "figure9": {
        "qualitative": "gap grows as flooding interval decreases",
        "throughput_with_flooding_5s_mbps": {0.65: 0.26, 1.3: 0.47},
        "throughput_without_flooding_mbps": {0.65: 0.27, 1.3: 0.48},
    },
    # Figure 10: fixed broadcast rates. BA(0.65) only wins at 0.65; BA(1.3)
    # wins up to 1.3 then ties; BA(2.6) always wins.
    "figure10": {"qualitative": "low fixed broadcast rates hurt at high unicast rates"},
    # Figure 11: broadcast at the unicast rate, 2-hop.
    "figure11": {"max_gap_ba_over_ua_percent": 10.0},
    # Figure 12: 3-hop linear and star topologies.
    "figure12": {
        "max_gap_3hop_percent": 12.2,
        "max_gap_star_percent": 11.0,
    },
    # Figure 13: delayed BA.
    "figure13": {"max_gap_2hop_percent": 2.0, "max_gap_3hop_percent": 4.0},
    # Figure 14: disabling forward aggregation costs more at higher rates.
    "figure14": {"qualitative": "BA vs BA-no-forward gap grows with rate"},
    # Table 3: 2-hop relay-node detail.
    "table3": {
        "frame_size_bytes": {"NA": 765, "UA": 2662, "BA": 2727, "DBA": 3477},
        "transmissions_percent": {"NA": 100.0, "UA": 33.7, "BA": 26.7, "DBA": 21.1},
        "size_overhead_percent": {"NA": 15.1, "UA": 6.83, "BA": 6.55, "DBA": 5.8},
    },
    # Table 4: 2-hop relay-node time overhead (%) per rate.
    "table4": {
        0.65: {"NA": 22.4, "UA": 6.7, "BA": 5.8, "DBA": 5.2},
        1.3: {"NA": 34.9, "UA": 14.3, "BA": 11.4, "DBA": 10.3},
        1.95: {"NA": 44.4, "UA": 19.3, "BA": 15.5, "DBA": 14.3},
        2.6: {"NA": 52.1, "UA": 24.8, "BA": 19.9, "DBA": 17.7},
    },
    # Table 5: relay-node frame size (bytes), 2-hop vs star.
    "table5": {
        "UA": {"2hop": 2662, "star": 2651},
        "BA": {"2hop": 2727, "star": 3432},
    },
    # Table 6: relay-node size overhead (%), 2-hop vs star.
    "table6": {
        "UA": {"2hop": 6.83, "star": 6.83},
        "BA": {"2hop": 6.55, "star": 5.93},
    },
    # Table 7: relay-node transmission percentages, 2-hop vs star.
    "table7": {
        "UA": {"2hop": 33.7, "star": 30.7},
        "BA": {"2hop": 26.7, "star": 22.5},
    },
    # Table 8: frame size (bytes) at every node, 2-hop and 3-hop.
    "table8": {
        "UA": {"server_2hop": 3897, "relay_2hop": 2662, "client_2hop": 463,
               "server_3hop": 3451, "relay1_3hop": 2384, "relay2_3hop": 2224,
               "client_3hop": 443},
        "BA": {"server_2hop": 3488, "relay_2hop": 2727, "client_2hop": 447,
               "server_3hop": 3313, "relay1_3hop": 2538, "relay2_3hop": 2670,
               "client_3hop": 430},
    },
    # Experimental constants (Section 5).
    "setup": {
        "snr_db": 25.0,
        "tx_power_mw": 7.7,
        "node_spacing_m": 2.5,
        "udp_mac_frame_bytes": 1140,
        "tcp_mss_bytes": 1357,
        "tcp_data_mac_frame_bytes": 1464,
        "tcp_ack_mac_frame_bytes": 160,
        "file_size_mb": 0.2,
        "rates_mbps": [0.65, 1.3, 1.95, 2.6],
    },
}
