"""The repository's benchmark: one closed-loop workload, checked and timed.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_chains --seed 1 --seconds 15 --trace 0

One client, one process, one thread: the workload's jobs (see
``workloads.py``) run back to back as one *pass*.  With ``--trace 0`` passes
repeat while the next one is expected to end within ``--seconds`` (at least
:data:`MIN_PASSES` of them), and the end-to-end metrics are medians over the
passes.  With ``--trace 1`` one untraced pass is followed by one traced pass
(``layertrace.py``); the run reports per-layer self time and counts, and
fails if tracing changed any simulated result.

Every job's output is checked.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the ``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``).  The exit code is 0 only when
every job passed its checks and the run was deterministic.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    from layertrace import JobTotals, Probe, format_job_table, format_layer_table, layer_metrics
    from workloads import WORKLOADS, Job, JobOutput, build_jobs
except ImportError as exc:
    if __name__ != "__main__":
        raise
    print(f"error: cannot import the simulator ({exc}); run from the root of a "
          "checkout of the repository", file=sys.stderr)
    sys.exit(2)

#: Fewest passes a ``--trace 0`` run makes, however long a pass takes.
MIN_PASSES = 2


@dataclass
class JobRecord:
    job_id: str
    output: JobOutput
    totals: JobTotals


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    records: List[JobRecord]

    @property
    def setup_s(self) -> float:
        return sum(record.totals.setup_s for record in self.records)

    @property
    def loop_s(self) -> float:
        return sum(record.totals.loop_s for record in self.records)

    @property
    def events(self) -> int:
        return sum(record.totals.events for record in self.records)

    @property
    def failed(self) -> List[JobRecord]:
        return [record for record in self.records if record.output.failures]

    def signature(self) -> Tuple:
        """Every simulated result of the pass, for exact comparisons."""
        return tuple((record.job_id, record.totals.events,
                      tuple(record.output.values), tuple(record.output.failures))
                     for record in self.records)


def run_pass(jobs: Sequence[Job], probe: Probe) -> PassResult:
    """Run every job once, back to back, under ``probe``."""
    gc.collect()
    records = []
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    for job in jobs:
        probe.begin_job()
        try:
            output = job.run()
        except Exception as exc:  # a raising job is a failed job; the rest still run
            traceback.print_exc(file=sys.stderr)
            output = JobOutput(failures=[f"raised {type(exc).__name__}: {exc}"])
        totals = probe.end_job()
        if totals.events == 0:
            output.failures.append("ran zero events")
        records.append(JobRecord(job.job_id, output, totals))
    return PassResult(time.perf_counter() - wall_start,
                      time.process_time() - cpu_start, records)


def probed_pass(jobs: Sequence[Job], traced: bool) -> Tuple[Probe, PassResult]:
    """One pass under a freshly installed probe, removed again afterwards."""
    probe = Probe(traced=traced)
    probe.install()
    try:
        return probe, run_pass(jobs, probe)
    finally:
        probe.uninstall()


def model_metrics(result: PassResult) -> Dict[str, Optional[float]]:
    """Means of the model values the pass's jobs report (None when none do)."""
    def mean(name: str) -> Optional[float]:
        values = [value for record in result.records
                  for value in getattr(record.output, name)]
        return statistics.fmean(values) if values else None

    return {"model_goodput_mbps": mean("goodput_mbps"),
            "model_delivery_ratio": mean("delivery"),
            "model_ctrl_frac": mean("ctrl_frac")}


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_metric_specs() -> Dict[str, List[dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def report_failures(results: Sequence[PassResult]) -> None:
    for number, result in enumerate(results, 1):
        for record in result.failed:
            for failure in record.output.failures:
                print(f"FAILED pass {number} {record.job_id}: {failure}")


def emit(correct: bool, attempted: int, failed: int, values: Dict[str, float],
         specs: List[dict]) -> None:
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
               for spec in specs}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def print_model_lines(model: Dict[str, Optional[float]]) -> None:
    units = {"model_goodput_mbps": "sim Mbit/s", "model_delivery_ratio": "fraction",
             "model_ctrl_frac": "fraction"}
    for name, value in model.items():
        shown = "n/a (no job of this workload reports it)" if value is None \
            else f"{value:.6f} {units[name]}"
        print(f"  {name:<22} {shown}")


def untraced_run(workload: str, jobs, seconds: float, specs) -> int:
    probe = Probe(traced=False)
    probe.install()
    results: List[PassResult] = []
    started = time.perf_counter()
    try:
        # Start another pass only while it is expected to end within the
        # budget, judged by the median pass so far.
        while (len(results) < MIN_PASSES
               or time.perf_counter() - started
               + statistics.median(result.wall_s for result in results) <= seconds):
            results.append(run_pass(jobs, probe))
    finally:
        probe.uninstall()

    first = results[0]
    deterministic = all(result.signature() == first.signature() for result in results)
    attempted = sum(len(result.records) for result in results)
    failed = sum(len(result.failed) for result in results)
    model = model_metrics(first)
    values = {
        "wall_s": statistics.median(result.wall_s for result in results),
        "cpu_s": statistics.median(result.cpu_s for result in results),
        "setup_s": statistics.median(result.setup_s for result in results),
        "peak_rss_mb": peak_rss_mb(),
        "error_rate": failed / attempted,
        **model,
    }
    units = {spec["name"]: spec["unit"] for spec in specs}
    print(f"workload {workload}: {len(results)} passes of {len(jobs)} jobs, "
          f"jobs attempted {attempted}, failed {failed}")
    for name in ("wall_s", "cpu_s", "setup_s"):
        per_pass = " ".join(f"{getattr(result, name):.3f}" for result in results)
        print(f"  {name:<22} {values[name]:.6f} {units[name]} "
              f"(median; passes: {per_pass})")
    print(f"  {'peak_rss_mb':<22} {values['peak_rss_mb']:.3f} {units['peak_rss_mb']}")
    print(f"  {'error_rate':<22} {values['error_rate']:.6f} fraction "
          f"({failed} of {attempted} jobs)")
    print_model_lines(model)
    print(f"  {'sim.events':<22} {first.events} count per pass")
    report_failures(results)
    if not deterministic:
        print("FAILED: passes of the same seed produced different simulated results")
    correct = deterministic and failed == 0
    emit(correct, attempted, failed, values, specs)
    return 0 if correct else 1


def traced_run(workload: str, jobs, specs) -> int:
    _, reference = probed_pass(jobs, traced=False)
    probe, traced = probed_pass(jobs, traced=True)
    neutral = traced.signature() == reference.signature()
    model = model_metrics(traced)
    values = layer_metrics(probe, traced, reference)
    for name, value in model.items():
        values[name] = 0.0 if value is None else value

    print(f"workload {workload}: traced pass of {len(jobs)} jobs "
          f"({traced.wall_s:.3f} s traced, {reference.wall_s:.3f} s untraced)")
    print(format_layer_table(probe, traced))
    print(format_job_table(traced))
    print_model_lines(model)
    width = max(len(spec["name"]) for spec in specs)
    for spec in specs:
        print(f"  {spec['name']:<{width}} {values[spec['name']]:.6g} {spec['unit']}")
    report_failures([reference, traced])
    if not neutral:
        print("FAILED: the traced pass's simulated results or event counts differ "
              "from the untraced pass's")
    attempted = len(reference.records) + len(traced.records)
    failed = len(reference.failed) + len(traced.failed)
    correct = neutral and failed == 0
    emit(correct, attempted, failed, values, specs)
    return 0 if correct else 1


def pin_to_one_cpu() -> None:
    """Run on the highest-numbered CPU this process may use.

    The run is single-threaded; one CPU spares it migrations, and the
    highest one is the farthest from CPU 0, where device interrupts and the
    kernel's housekeeping usually land.
    """
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except OSError:  # affinity is an optimisation; run unpinned without it
            pass


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="host seconds of passes to measure (--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        specs = load_metric_specs()
        jobs = build_jobs(args.workload, args.seed)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    if args.trace:
        return traced_run(args.workload, jobs, specs["per_layer"])
    return untraced_run(args.workload, jobs, args.seconds, specs["end_to_end"])


if __name__ == "__main__":
    sys.exit(main())
