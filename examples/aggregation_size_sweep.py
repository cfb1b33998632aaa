#!/usr/bin/env python3
"""Sweep of the maximum aggregation size (the Figure 7 experiment).

Shows the throughput-vs-aggregation-size curve for several PHY rates and the
collapse beyond the ~120 Ksample channel-coherence ceiling of the Hydra PHY,
which is why the paper settles on a 5 KB maximum aggregation size.

Run with::

    python examples/aggregation_size_sweep.py
"""

from __future__ import annotations

from repro.experiments import fig07_aggregation_size
from repro.phy.error_model import COHERENCE_SAMPLES
from repro.phy.rates import rate_for_mbps
from repro.phy.timing import bytes_for_samples
from repro.units import kilobytes


def main() -> None:
    result = fig07_aggregation_size.run(rates_mbps=(0.65, 1.3, 1.95),
                                        sizes_kb=(2, 3, 4, 5, 6, 8, 10, 12, 14, 16),
                                        duration=10.0)
    print(result.to_text())

    print(f"\nAggregation sizes at the {COHERENCE_SAMPLES / 1000:.0f} Ksample coherence ceiling:")
    for mbps in (0.65, 1.3, 1.95):
        ceiling_bytes = bytes_for_samples(COHERENCE_SAMPLES, rate_for_mbps(mbps))
        print(f"  {mbps:>5} Mbps: {ceiling_bytes / 1024:.1f} KB")
    print("\nThe paper picks 5 KB so that every supported rate stays below the ceiling.")
    chosen = kilobytes(5)
    print(f"Chosen maximum aggregation size: {chosen} bytes")


if __name__ == "__main__":
    main()
