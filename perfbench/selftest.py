"""The benchmark's own tests: seeds, output checks, tracing neutrality and coverage.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

The file name keeps the repository's default ``pytest`` collection from
picking these up; they run a few short simulations (seconds in all).
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, JobOutput, experiment_job  # noqa: E402


def short_jobs(seed: int = 5):
    """A pass of a few seconds that reaches every layer, the grid index and gc."""
    return [
        Job("tcp/BA/2hop", workloads.tcp_transfer,
            (("policy", "BA"), ("hops", 2), ("rate_mbps", 2.6), ("seed", seed))),
        Job("flood/NA", workloads.udp_flooding,
            (("policy", "NA"), ("flooding_interval", 2.0), ("seed", seed))),
        experiment_job("rt02/aodv", "rt02", seed, fast=True, routings=("aodv",),
                       flow_counts=(2,)),
        experiment_job("city01/aodv", "city01", seed, fast=True, node_counts=(100,),
                       protocols=("aodv",), flow_count=10),
    ]


@pytest.fixture(scope="module")
def passes():
    """An untraced and a traced pass of the same short job list."""
    _, untraced = run.probed_pass(short_jobs(), traced=False)
    probe, traced = run.probed_pass(short_jobs(), traced=True)
    return untraced, probe, traced


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_job_lists_are_a_function_of_the_seed(workload):
    assert workloads.build_jobs(workload, 7) == workloads.build_jobs(workload, 7)
    first, second = workloads.build_jobs(workload, 7), workloads.build_jobs(workload, 8)
    assert [job.job_id for job in first] == [job.job_id for job in second]
    seeds = {dict(job.kwargs)["seed"] for job in first}
    assert seeds.isdisjoint({dict(job.kwargs)["seed"] for job in second})


def test_same_seed_twice_gives_identical_model_metrics_and_events(passes):
    untraced, _, _ = passes
    _, again = run.probed_pass(short_jobs(), traced=False)
    assert again.signature() == untraced.signature()
    assert run.model_metrics(again) == run.model_metrics(untraced)
    assert again.events == untraced.events > 0


# ---------------------------------------------------------------------------
# Tracing: neutrality, restoration, coverage
# ---------------------------------------------------------------------------

def test_traced_pass_matches_the_untraced_pass(passes):
    untraced, _, traced = passes
    assert not traced.failed and not untraced.failed
    assert traced.signature() == untraced.signature()
    assert traced.events == untraced.events


def test_uninstall_restores_every_original_function_object():
    probe = layertrace.Probe(traced=True)
    probe.install()
    patched = probe.patcher.saved
    try:
        assert len(patched) > 20
        assert all(vars(owner)[name] is not original for owner, name, original in patched)
    finally:
        probe.uninstall()
    assert all(vars(owner)[name] is original for owner, name, original in patched)
    assert probe.patcher.saved == []
    assert probe._on_gc not in gc.callbacks


def test_layer_self_times_add_up_to_the_traced_job_time(passes):
    _, probe, traced = passes
    self_s = layertrace.pass_self_times(traced.records)
    job_time = sum(record.totals.wall_s for record in traced.records)
    assert sum(self_s.values()) == pytest.approx(job_time, rel=0.01, abs=1e-3)
    loop_time = sum(record.totals.loop_s for record in traced.records)
    assert loop_time < job_time
    metrics = layertrace.layer_metrics(probe, traced, traced)
    assert metrics["trace.attributed_fraction"] >= 0.95


def test_no_scheduled_callback_lands_in_an_unnamed_layer(passes):
    _, probe, _ = passes
    assert probe.event_buckets
    unnamed = [bucket for bucket in probe.event_buckets
               if layertrace.layer_of(bucket) is None]
    assert unnamed == []
    # Timers are booked to their targets: the MAC's backoff and the routers'
    # HELLO/expiry timers show up under their own layers.
    assert probe.event_buckets["mac"] > 0
    assert probe.event_buckets[layertrace.CONTROL_BUCKET] > 0


def test_every_layer_is_reached_by_the_short_pass(passes):
    _, probe, traced = passes
    metrics = layertrace.layer_metrics(probe, traced, traced)
    for layer in layertrace.LAYERS:
        assert metrics[f"{layer}.self_s"] > 0, layer
    assert metrics["channel.index_self_s"] > 0
    assert metrics["mobility.position_queries"] > 0
    assert 0 < metrics["channel.memo_hit_ratio"] < 1


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def test_output_checks_flag_bad_ratios_and_goodputs():
    output = JobOutput()
    output.ratio("ok", 0.5)
    output.goodput("ok", 0.4, rate_mbps=0.65)
    assert output.failures == []
    output.ratio("high", 1.5)
    output.ratio("nan", float("nan"))
    output.goodput("too fast", 0.7, rate_mbps=0.65)
    output.goodput("inf", float("inf"), rate_mbps=0.65)
    assert len(output.failures) == 4


def _raises() -> JobOutput:
    raise RuntimeError("boom")


def test_raising_and_eventless_jobs_count_as_failed():
    _, result = run.probed_pass([Job("raises", _raises, ()),
                                 Job("no simulation", JobOutput, ())], traced=False)
    failures = {record.job_id: record.output.failures for record in result.failed}
    assert set(failures) == {"raises", "no simulation"}
    assert any("RuntimeError" in failure for failure in failures["raises"])
    assert failures["no simulation"] == ["ran zero events"]


# ---------------------------------------------------------------------------
# BENCHMARK.json and the command line
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_what_the_runs_report(passes):
    _, probe, traced = passes
    bench = load_benchmark()
    reported = set(layertrace.layer_metrics(probe, traced, traced)) | set(run.model_metrics(traced))
    per_layer = [spec["name"] for spec in bench["per_layer"]]
    assert set(per_layer) <= reported
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as handle:
        predictions = json.load(handle)["per_layer"]
    assert list(predictions) == per_layer
    workload_names = {spec["name"] for spec in bench["workloads"]}
    assert workload_names == set(workloads.WORKLOADS)
    end_to_end = {spec["name"] for spec in bench["end_to_end"]}
    for name, prediction in predictions.items():
        assert set(prediction["moves"]) <= end_to_end | {"model_goodput_mbps",
                                                         "model_ctrl_frac"}, name
        assert set(prediction["most"]) | set(prediction["least"]) <= workload_names, name


def test_command_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_chains", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
