"""Ablation benchmarks beyond the paper's evaluation.

Two design knobs the paper discusses but does not sweep:

* the RTS/CTS exchange (Hydra always uses it) — with aggregation the
  handshake is amortised over more payload, so disabling it changes little;
* the block-ACK extension (Section 7 future work) — with the paper's
  all-or-nothing CRC rule a single corrupted subframe forces the whole
  unicast portion to be retransmitted; block ACKs retransmit only what was
  lost.  At the clean 25 dB operating point both behave the same, which is
  exactly why the paper could defer it.
"""

from __future__ import annotations

from bench_common import BENCH_FILE_BYTES, run_once

from repro.core import broadcast_aggregation
from repro.experiments import run_tcp_transfer


def _throughput_with(use_rts_cts=True, use_block_ack=False):
    outcome = run_tcp_transfer(broadcast_aggregation(), hops=2, rate_mbps=2.6,
                               file_bytes=BENCH_FILE_BYTES, seed=5,
                               use_block_ack=use_block_ack, use_rts_cts=use_rts_cts)
    return outcome.throughput_mbps


def test_ablation_rts_cts_cost(benchmark):
    def run_pair():
        return _throughput_with(use_rts_cts=True), _throughput_with(use_rts_cts=False)

    with_rts, without_rts = run_once(benchmark, run_pair)
    print(f"BA 2-hop @2.6 Mbps: with RTS/CTS {with_rts:.3f} Mbps, "
          f"without {without_rts:.3f} Mbps")
    # Dropping the handshake can only help on a clean channel, and by a
    # bounded amount because aggregation already amortises it.
    assert without_rts >= with_rts * 0.95
    assert without_rts <= with_rts * 1.6


def test_ablation_block_ack_matches_baseline_on_clean_channel(benchmark):
    def run_pair():
        return _throughput_with(use_block_ack=False), _throughput_with(use_block_ack=True)

    baseline, block_ack = run_once(benchmark, run_pair)
    print(f"BA 2-hop @2.6 Mbps: all-or-nothing {baseline:.3f} Mbps, "
          f"block ACK {block_ack:.3f} Mbps")
    assert block_ack > 0.8 * baseline
    assert block_ack < 1.25 * baseline
