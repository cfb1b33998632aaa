"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper with reduced
parameters (smaller file, shorter UDP runs, fewer swept points) so the whole
suite completes in minutes.  The asserted properties are the paper's
*qualitative* results — orderings, gap growth, threshold positions — which
hold at the reduced scale; ``python -m repro.campaign run <id> --full``
regenerates the full-scale numbers of one figure or table.
"""

from __future__ import annotations

#: Reduced file size used by the TCP benchmarks (the paper uses 0.2 MB).
BENCH_FILE_BYTES = 80_000
#: Reduced duration for UDP saturation runs (seconds of simulated time).
BENCH_UDP_DURATION = 8.0


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def campaign_fast_params(experiment_id, **overrides):
    """The campaign registry's reduced parameter set for one experiment.

    Benchmarks that want to exercise a runner at "campaign smoke" scale can
    use this instead of hand-maintaining a second copy of the reduced sweep
    (see ``FAST_PARAMS`` in each ``repro.experiments`` module).
    """
    from repro.campaign.registry import get_registry

    return get_registry().get(experiment_id).resolve_params(overrides, fast=True)
