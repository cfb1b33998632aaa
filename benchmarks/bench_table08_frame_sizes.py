"""Table 8 benchmark: frame size at every node, 2-hop vs 3-hop."""

from __future__ import annotations

from bench_common import BENCH_FILE_BYTES, run_once

from repro.experiments import table08_frame_sizes


def test_table08_per_node_frame_sizes(benchmark):
    result = run_once(benchmark, table08_frame_sizes.run,
                      rate_mbps=1.3, file_bytes=BENCH_FILE_BYTES)
    print(result.to_text())

    table = result.tables[0]
    for variant in ("UA", "BA"):
        # The server transmits large data aggregates, the client small ACK frames.
        assert table.cell(variant, "server (2)") > table.cell(variant, "client (2)")
        assert table.cell(variant, "server (3)") > table.cell(variant, "client (3)")
        # Relay frames sit between client and server sizes.
        assert (table.cell(variant, "client (2)") < table.cell(variant, "relay (2)")
                < table.cell(variant, "server (2)") * 1.2)
    # BA relays aggregate at least as much as UA relays on both path lengths.
    # (The paper additionally observes the gap *growing* with hop count; in this
    # reproduction the 2-hop BA relay already aggregates close to the 5 KB
    # budget, so the extra hop adds little.)
    assert result.metrics["relay_gap_2hop_bytes"] > 0.0
    assert result.metrics["relay2_gap_3hop_bytes"] > 0.0
