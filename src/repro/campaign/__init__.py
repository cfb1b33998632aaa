"""Parallel experiment-campaign engine with seed replication and caching.

The seed repo reproduces each paper figure/table as a one-shot, single-seed,
single-process run.  This package turns those runners into a campaign system:

* :mod:`repro.campaign.registry` auto-registers every hooked module in
  :mod:`repro.experiments` under its paper id (``fig07`` … ``table08``) with a
  parameter schema introspected from its ``run()`` signature,
* :mod:`repro.campaign.runner` executes (experiment × seed × params) jobs over
  a process pool with per-job timeouts, progress reporting and intra-batch
  dedup (identical jobs submitted twice execute once),
* :mod:`repro.campaign.cache` makes re-runs incremental via an on-disk JSON
  cache keyed by (experiment id, params, seed, code version) — the code
  version is the digest of the whole ``repro`` package's source, so editing
  any simulator module invalidates every cached result automatically,
* :mod:`repro.stats.aggregate` condenses the per-seed replicas into per-point
  mean ± 95% confidence intervals.

Walkthrough
-----------

List what can be run, then replicate Figure 9 over five seeds on four worker
processes (the default parameter set is each module's reduced ``FAST_PARAMS``;
pass ``--full`` for the paper-scale sweep)::

    $ python -m repro.campaign list
    $ python -m repro.campaign run fig09 --seeds 5 --jobs 4

or sweep every registered experiment (the mobile/routing experiments
``mob01`` … ``mob04``, ``rt01`` and ``rt02`` included) at smoke scale —
optionally filtered by shell-style globs so CI can smoke the mobile+routing
scenarios separately from the paper figures::

    $ python -m repro.campaign run-all --seeds 1 --jobs 4
    $ python -m repro.campaign run-all --seeds 1 --jobs 4 --experiments 'mob*,rt*'

(``rt02`` is the DSDV-vs-AODV-vs-static overhead-scaling comparison; see the
README for how to read its ``routing_overhead_fraction`` series.)

The run prints the aggregated figure (mean y-values; 95% CI half-widths are
stored in each series' ``y_errors``) and writes ``campaign_fig09.json`` with
the aggregate plus every per-seed replica.  Because each completed job is
cached under ``.campaign-cache/``, re-running the same command is served
entirely from cache, and raising ``--seeds`` only executes the new seeds.
Inspect a results file later — or render it as a standalone SVG plot with
95%-CI error bars (hand-rolled writer, no matplotlib) — with::

    $ python -m repro.campaign report campaign_fig09.json --replicas
    $ python -m repro.campaign report campaign_fig09.json --svg fig09.svg

Programmatic use mirrors the CLI::

    from repro.campaign import CampaignRunner, ResultCache

    runner = CampaignRunner(jobs=4, cache=ResultCache(".campaign-cache"))
    outcome = runner.run_campaign("fig09", seeds=[1, 2, 3, 4, 5])
    outcome.aggregate.get_series("aggregation 0.65 Mbps").y_errors  # 95% CIs
"""

from repro.campaign.cache import ResultCache, job_key
from repro.campaign.registry import (
    ExperimentRegistry,
    ExperimentSpec,
    ParameterSpec,
    discover,
    get_registry,
    package_source_digest,
)
from repro.campaign.runner import (
    CampaignJob,
    CampaignOutcome,
    CampaignRunner,
    JobOutcome,
    execute_job,
)

__all__ = [
    "CampaignJob",
    "CampaignOutcome",
    "CampaignRunner",
    "ExperimentRegistry",
    "ExperimentSpec",
    "JobOutcome",
    "ParameterSpec",
    "ResultCache",
    "discover",
    "execute_job",
    "get_registry",
    "job_key",
    "package_source_digest",
]
