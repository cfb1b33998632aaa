"""Replicated campaign example: Figure 9 over several seeds, in parallel.

Runs the Figure 9 flooding sweep over five seeds on up to four worker
processes, prints the aggregated mean ± 95% CI per point, and demonstrates
that a second pass is served from the on-disk cache.

Run with::

    PYTHONPATH=src python examples/campaign_sweep.py
"""

from __future__ import annotations

import tempfile

from repro.campaign import CampaignRunner, ResultCache
from repro.obs import ProgressReporter


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="campaign-cache-") as cache_dir:
        cache = ResultCache(cache_dir)
        reporter = ProgressReporter(emit=lambda line: print(f"  {line}"), workers=4)
        runner = CampaignRunner(jobs=4, cache=cache, timeout=300.0, observer=reporter)

        print("first pass (cold cache):")
        outcome = runner.run_campaign("fig09", seeds=[1, 2, 3, 4, 5])
        print()
        print(outcome.aggregate.to_text())
        print()
        for label, series in outcome.aggregate.series.items():
            for x, y, err in zip(series.x_values, series.y_values, series.y_errors):
                print(f"  {label:28} interval={x:<5} {y:.4f} ± {err:.4f} Mbps")

        print()
        print("second pass (warm cache):")
        runner.run_campaign("fig09", seeds=[1, 2, 3, 4, 5])
        print(f"  {cache.stats_line}")


if __name__ == "__main__":
    main()
