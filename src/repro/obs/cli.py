"""Command-line interface: ``python -m repro.obs run <experiment>``.

Runs one registered experiment with an observability session active and
writes whichever exports were requested::

    python -m repro.obs run fig09 --seed 1 \
        --trace-out timeline.json \
        --metrics-out metrics.json \
        --capture-out frames.jsonl \
        --journey-out journeys.json --flow 10.0.0.1,10.0.0.3

``timeline.json`` opens directly in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.  Each export is enabled only when its output path is
given, so an un-flagged run observes nothing.  ``--journey-out`` also runs
the packet-conservation audit and exits 1 when any node's ledger does not
balance (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.campaign.registry import get_registry, parse_overrides
from repro.errors import ReproError
from repro.obs.journey import format_flow_report
from repro.obs.session import observe


def _cmd_run(args: argparse.Namespace) -> int:
    spec = get_registry().get(args.experiment_id)
    params = spec.resolve_params(parse_overrides(args.set or []),
                                 fast=not args.full)
    wants_trace = args.trace_out is not None
    wants_metrics = args.metrics_out is not None
    wants_capture = args.capture_out is not None
    wants_journey = args.journey_out is not None
    if not (wants_trace or wants_metrics or wants_capture or wants_journey):
        print("error: nothing to observe — pass --trace-out, --metrics-out, "
              "--capture-out and/or --journey-out", file=sys.stderr)
        return 2
    flow_filter = None
    if args.flow is not None:
        src, separator, dst = args.flow.partition(",")
        if not separator or not src or not dst:
            print(f"error: --flow expects SRC,DST, got {args.flow!r}",
                  file=sys.stderr)
            return 2
        flow_filter = (src.strip(), dst.strip())

    print(f"observing {args.experiment_id}[seed={args.seed}] "
          f"({'full' if args.full else 'fast'} parameters)")
    with observe(trace=wants_trace, metrics=wants_metrics,
                 capture=wants_capture, journey=wants_journey,
                 max_trace_records=args.max_trace_records) as session:
        result = spec.run(seed=args.seed, **dict(params))

    print(f"{len(session.simulators)} simulator(s) observed")
    if wants_trace:
        count = session.export_timeline(args.trace_out)
        print(f"timeline: {count} trace event(s) -> {args.trace_out} "
              f"(open in https://ui.perfetto.dev)")
    if wants_metrics:
        session.export_metrics(args.metrics_out)
        print(f"metrics: {len(session.simulators)} snapshot(s) -> {args.metrics_out}")
    if wants_capture:
        count = session.export_capture(args.capture_out)
        dropped = session.capture.dropped if session.capture else 0
        note = (f" ({dropped} dropped past the capture bound of "
                f"{session.config.max_capture_frames:,} frames, "
                f"observe(max_capture_frames=))" if dropped else "")
        print(f"capture: {count} frame(s) -> {args.capture_out}{note}")
    exit_code = 0
    if wants_journey:
        count = session.export_journeys(args.journey_out)
        print(f"journeys: {count} packet journey(s) -> {args.journey_out}")
        if flow_filter is not None:
            print()
            print(format_flow_report(session.flow_report(src=flow_filter[0],
                                                         dst=flow_filter[1])))
            print()
        audit = session.conservation_report()
        if audit["balanced"]:
            totals = [entry["audit"]["totals"]
                      for entry in audit["simulations"]]
            delivered = sum(t["delivered"] for t in totals)
            dropped = sum(t["dropped"] for t in totals)
            in_flight = sum(t["in_flight"] for t in totals)
            print(f"conservation audit: balanced on every node "
                  f"(delivered {delivered}, dropped {dropped}, "
                  f"in flight {in_flight})")
        else:
            exit_code = 1
            print("conservation audit: FAILED — packets are unaccounted for",
                  file=sys.stderr)
            for entry in audit["simulations"]:
                for violation in entry["audit"]["violations"][:20]:
                    print(f"  sim{entry['simulation']}: {violation}",
                          file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=1, default=repr)
        print(f"results written to {args.out}")
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.obs`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Run one experiment with observability exports enabled.")
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="run an experiment with trace/metrics/capture export")
    run_parser.add_argument("experiment_id", help="registry id, e.g. fig09")
    run_parser.add_argument("--seed", type=int, default=1,
                            help="simulation seed (default 1)")
    run_parser.add_argument("--full", action="store_true",
                            help="use the paper's full parameters instead of "
                                 "FAST_PARAMS")
    run_parser.add_argument("--set", action="append", metavar="NAME=VALUE",
                            help="override one run() parameter (repeatable)")
    run_parser.add_argument("--trace-out", default=None, metavar="PATH",
                            help="write a Chrome trace-event timeline here "
                                 "(Perfetto-compatible JSON)")
    run_parser.add_argument("--metrics-out", default=None, metavar="PATH",
                            help="write per-simulator metrics snapshots here "
                                 "(JSON)")
    run_parser.add_argument("--capture-out", default=None, metavar="PATH",
                            help="write the PHY/MAC frame capture here (JSONL)")
    run_parser.add_argument("--journey-out", default=None, metavar="PATH",
                            help="write per-packet journeys, flow waterfalls "
                                 "and the conservation audit here (JSON); "
                                 "exits 1 if the audit finds unaccounted "
                                 "packets")
    run_parser.add_argument("--flow", default=None, metavar="SRC,DST",
                            help="with --journey-out: print the hop-by-hop "
                                 "latency breakdown for one flow, e.g. "
                                 "10.0.0.1,10.0.0.3")
    run_parser.add_argument("--max-trace-records", type=int, default=500_000,
                            help="per-simulator tracer storage bound "
                                 "(default 500000)")
    run_parser.add_argument("--out", default=None, metavar="PATH",
                            help="also write the experiment result JSON here")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return {"run": _cmd_run}[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
