"""Command-line interface: ``python -m repro.campaign {list,run,run-all,report}``."""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.campaign.cache import ResultCache
from repro.campaign.registry import get_registry, parse_overrides
from repro.campaign.runner import CampaignOutcome, CampaignRunner
from repro.errors import ReproError
from repro.obs.progress import ProgressReporter
from repro.stats.svg import write_svg

DEFAULT_CACHE_DIR = ".campaign-cache"


def _build_runner(args: argparse.Namespace) -> CampaignRunner:
    """Runner configured from the shared run/run-all flags.

    Progress streams through a :class:`ProgressReporter` observer: one line
    per job start/finish with a running counter, per-job events/s from the
    worker's telemetry, and an ETA once a job has completed.
    """
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    reporter = ProgressReporter(
        emit=lambda line: print(f"  {line}", flush=True), workers=args.jobs)
    return CampaignRunner(
        jobs=args.jobs, cache=cache,
        timeout=args.timeout if args.timeout > 0 else None,
        observer=reporter)


def _seed_list(args: argparse.Namespace) -> List[int]:
    return [args.base_seed + offset for offset in range(args.seeds)]


def _write_results(path: str, payload: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        # No sort_keys: series/table ordering follows the paper's layout.
        json.dump(payload, handle, indent=1, default=repr)


def _cmd_list(_: argparse.Namespace) -> int:
    registry = get_registry()
    for experiment_id in registry.experiment_ids():
        spec = registry.get(experiment_id)
        print(f"{experiment_id:12} {spec.description}")
        defaults = ", ".join(f"{p.name}={p.default!r}" for p in spec.parameters)
        print(f"{'':12}   module: {spec.module_name}")
        print(f"{'':12}   params: {defaults}")
        if spec.fast_params:
            fast = ", ".join(f"{k}={v!r}" for k, v in spec.fast_params.items())
            print(f"{'':12}   fast:   {fast}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    runner = _build_runner(args)
    seeds = _seed_list(args)
    print(f"campaign {args.experiment_id}: {len(seeds)} seed(s) x jobs={args.jobs} "
          f"({'full' if args.full else 'fast'} parameters)")
    outcome = runner.run_campaign(
        args.experiment_id, seeds,
        overrides=parse_overrides(args.set or []), fast=not args.full)

    print()
    print(outcome.aggregate.to_text())
    print()
    print(runner.observer.summary_line())
    if runner.cache is not None:
        print(runner.cache.stats_line)
    out_path = args.out or f"campaign_{args.experiment_id}.json"
    _write_results(out_path, outcome.to_dict())
    print(f"results written to {out_path}")
    failed = [o for o in outcome.outcomes if not o.ok]
    for job_outcome in failed:
        print(f"FAILED {job_outcome.job.describe()}: {job_outcome.status}", file=sys.stderr)
    return 1 if failed else 0


def _select_experiments(patterns: Optional[Sequence[str]],
                        experiment_ids: Sequence[str]) -> List[str]:
    """Filter registry ids by shell-style globs (``--experiments 'mob*'``).

    Patterns may be repeated and/or comma-separated; a pattern matching no
    experiment is an error so typos do not silently run nothing.
    """
    if not patterns:
        return list(experiment_ids)
    selected: List[str] = []
    for raw in patterns:
        for pattern in filter(None, (p.strip() for p in raw.split(","))):
            matches = fnmatch.filter(experiment_ids, pattern)
            if not matches:
                raise SystemExit(
                    f"--experiments pattern {pattern!r} matches no experiment; "
                    f"known: {', '.join(experiment_ids)}")
            selected.extend(m for m in matches if m not in selected)
    return selected


def _cmd_run_all(args: argparse.Namespace) -> int:
    """Sweep registered experiments (FAST_PARAMS by default, optionally globbed)."""
    registry = get_registry()
    runner = _build_runner(args)
    seeds = _seed_list(args)
    experiment_ids = _select_experiments(args.experiments, registry.experiment_ids())
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    print(f"run-all: {len(experiment_ids)} experiment(s) x {len(seeds)} seed(s), "
          f"jobs={args.jobs} ({'full' if args.full else 'fast'} parameters)")

    failures: List[str] = []
    for experiment_id in experiment_ids:
        print(f"[{experiment_id}]", flush=True)
        try:
            outcome = runner.run_campaign(experiment_id, seeds, fast=not args.full)
        except ReproError as error:
            print(f"  FAILED: {error}", file=sys.stderr)
            failures.append(experiment_id)
            continue
        if any(not o.ok for o in outcome.outcomes):
            failures.append(experiment_id)
        if args.out_dir:
            _write_results(os.path.join(args.out_dir, f"campaign_{experiment_id}.json"),
                           outcome.to_dict())
    print(runner.observer.summary_line())
    if runner.cache is not None:
        print(runner.cache.stats_line)
    if failures:
        print(f"run-all: {len(failures)} experiment(s) with failed jobs: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"run-all: all {len(experiment_ids)} experiments completed")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        with open(args.results_file, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        outcome = CampaignOutcome.from_dict(payload)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as error:
        print(f"error: cannot read results file {args.results_file!r}: {error!r}",
              file=sys.stderr)
        return 2
    if args.svg:
        write_svg(outcome.aggregate, args.svg)
        print(f"SVG written to {args.svg}")
    print(f"campaign {outcome.experiment_id} over seeds {outcome.seeds}")
    print(f"params: {outcome.params}")
    missing = [seed for seed in outcome.seeds if seed not in outcome.replicas]
    if missing:
        failed = payload.get("job_stats", {}).get("failed", len(missing))
        print(f"WARNING: {failed} job(s) failed — no replica for seed(s) {missing}; "
              f"the aggregate covers only {len(outcome.replicas)} seed(s)")
    print()
    print(outcome.aggregate.to_text())
    if args.replicas:
        for seed in outcome.seeds:
            if seed in outcome.replicas:
                print()
                print(f"--- replica seed={seed} ---")
                print(outcome.replicas[seed].to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.campaign`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Run paper experiments in parallel over replicated seeds.")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="show registered experiments and their parameters")

    run_parser = commands.add_parser("run", help="run one experiment over N seeds")
    run_parser.add_argument("experiment_id", help="registry id, e.g. fig09 or table02")
    run_parser.add_argument("--seeds", type=int, default=3,
                            help="number of replicated seeds (default 3)")
    run_parser.add_argument("--base-seed", type=int, default=1,
                            help="first seed; replicas use base, base+1, ... (default 1)")
    run_parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes; >1 uses a process pool (default 1)")
    run_parser.add_argument("--timeout", type=float, default=600.0,
                            help="per-job timeout in seconds (default 600; "
                                 "0 disables the timeout and lets --jobs 1 "
                                 "run without a process pool)")
    run_parser.add_argument("--full", action="store_true",
                            help="use the paper's full parameters instead of FAST_PARAMS")
    run_parser.add_argument("--set", action="append", metavar="NAME=VALUE",
                            help="override one run() parameter (repeatable)")
    run_parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                            help=f"result cache directory (default {DEFAULT_CACHE_DIR})")
    run_parser.add_argument("--no-cache", action="store_true",
                            help="bypass the result cache entirely")
    run_parser.add_argument("--out", default=None,
                            help="results JSON path (default campaign_<id>.json)")

    run_all_parser = commands.add_parser(
        "run-all",
        help="sweep every registered experiment (reduced FAST_PARAMS by default)")
    run_all_parser.add_argument("--seeds", type=int, default=1,
                                help="replicated seeds per experiment (default 1, "
                                     "sized for CI smoke runs)")
    run_all_parser.add_argument("--base-seed", type=int, default=1,
                                help="first seed; replicas use base, base+1, ... (default 1)")
    run_all_parser.add_argument("--jobs", type=int, default=1,
                                help="worker processes; >1 uses a process pool (default 1)")
    run_all_parser.add_argument("--timeout", type=float, default=600.0,
                                help="per-job timeout in seconds (default 600; 0 disables)")
    run_all_parser.add_argument("--full", action="store_true",
                                help="use the paper's full parameters instead of FAST_PARAMS")
    run_all_parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                                help=f"result cache directory (default {DEFAULT_CACHE_DIR})")
    run_all_parser.add_argument("--no-cache", action="store_true",
                                help="bypass the result cache entirely")
    run_all_parser.add_argument("--out-dir", default=None,
                                help="write campaign_<id>.json per experiment here")
    run_all_parser.add_argument("--experiments", action="append", metavar="GLOB",
                                help="only run experiments matching this "
                                     "shell-style glob, e.g. 'mob*' or "
                                     "'fig*,table*' (repeatable)")

    report_parser = commands.add_parser("report", help="pretty-print a results JSON file")
    report_parser.add_argument("results_file")
    report_parser.add_argument("--replicas", action="store_true",
                               help="also print every per-seed replica")
    report_parser.add_argument("--svg", default=None, metavar="PATH",
                               help="also render the aggregate (series + 95%% CI "
                                    "error bars) as a standalone SVG plot")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {"list": _cmd_list, "run": _cmd_run, "run-all": _cmd_run_all,
                "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
