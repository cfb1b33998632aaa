"""Campaign satellites: run-all, intra-batch dedup, code-version invalidation."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

import repro
import repro.campaign.cli as cli
import repro.campaign.runner as runner_module
from repro.campaign.cache import ResultCache, job_key
from repro.campaign.cli import main
from repro.campaign.registry import (
    ExperimentRegistry,
    ExperimentSpec,
    ParameterSpec,
    get_registry,
    package_source_digest,
)
from repro.campaign.runner import CampaignJob, CampaignRunner
from repro.stats.results import ExperimentResult, Series

TINY = {"rates_mbps": (0.65,), "sizes_kb": (2, 3), "duration": 1.5}


# ---------------------------------------------------------------------------
# Code-version cache keys
# ---------------------------------------------------------------------------

def test_job_key_includes_the_code_version():
    params = {"duration": 1.5}
    assert job_key("figX", params, 1, "aaaa") != job_key("figX", params, 1, "bbbb")
    # The empty code version keeps the pre-versioning key (old entries are
    # simply orphaned once specs start carrying digests).
    assert job_key("figX", params, 1) == job_key("figX", params, 1, "")


def test_cache_respects_the_code_version(tmp_path):
    cache = ResultCache(str(tmp_path))
    result = ExperimentResult(experiment_id="figX", description="demo")
    result.add_series(Series(label="S", x_values=[1.0], y_values=[0.5]))
    cache.put("figX", {"duration": 1.5}, 1, result.to_dict(), code_version="v1")
    assert cache.get("figX", {"duration": 1.5}, 1, code_version="v1") is not None
    assert cache.get("figX", {"duration": 1.5}, 1, code_version="v2") is None


def test_every_registered_spec_carries_a_source_digest():
    # One digest of the whole package, stamped on every spec.
    registry = get_registry()
    package_digest = package_source_digest(os.path.dirname(repro.__file__))
    assert len(package_digest) == 16
    for experiment_id in registry.experiment_ids():
        assert registry.get(experiment_id).source_digest == package_digest, experiment_id


def test_run_campaign_stamps_jobs_with_the_specs_digest(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    outcome = CampaignRunner(jobs=1, cache=cache).run_campaign(
        "fig07", seeds=[1], overrides=TINY)
    digest = get_registry().get("fig07").source_digest
    assert outcome.outcomes[0].job.code_version == digest


def test_editing_a_runner_module_busts_its_cache_entries(tmp_path):
    """The end-to-end invalidation story on a real runner module file."""
    package = tmp_path / "pkg"
    package.mkdir()
    module_path = package / "exp_demo.py"
    module_path.write_text(
        '"""Demo experiment."""\n'
        "EXPERIMENT_ID = 'demo'\n"
        "FAST_PARAMS = {}\n"
        "def run(value=1.0, seed=1):\n"
        "    return value * seed\n")

    cache = ResultCache(str(tmp_path / "cache"))
    result = ExperimentResult(experiment_id="demo", description="demo")
    digest_before = package_source_digest(str(package))
    cache.put("demo", {"value": 1.0}, 1, result.to_dict(), code_version=digest_before)
    assert cache.get("demo", {"value": 1.0}, 1, code_version=digest_before) is not None

    # Edit the runner: the digest changes, so the entry is a miss now.
    module_path.write_text(module_path.read_text().replace(
        "value * seed", "value * seed + 1.0"))
    digest_after = package_source_digest(str(package))
    assert digest_after != digest_before
    assert cache.get("demo", {"value": 1.0}, 1, code_version=digest_after) is None


def test_a_library_edit_busts_every_cache_entry(tmp_path):
    """The end-to-end invalidation story on a real package tree.

    The edited file is not the runner: a result depends on every module the
    runner reaches, so a library edit must miss too.
    """
    package = tmp_path / "pkg"
    (package / "experiments").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "experiments" / "exp_demo.py").write_text(
        "from pkg.policies import SIZE\n"
        "def run(value=1.0, seed=1):\n"
        "    return value * seed * SIZE\n")
    library = package / "policies.py"
    library.write_text("SIZE = 5120\n")
    (package / "notes.txt").write_text("not source")

    cache = ResultCache(str(tmp_path / "cache"))
    result = ExperimentResult(experiment_id="demo", description="demo")
    digest_before = package_source_digest(str(package))
    cache.put("demo", {"value": 1.0}, 1, result.to_dict(), code_version=digest_before)

    # An unchanged tree (and a non-source file) keeps the key: a hit.
    (package / "notes.txt").write_text("edited, but still not source")
    assert package_source_digest(str(package)) == digest_before
    assert cache.get("demo", {"value": 1.0}, 1, code_version=digest_before) is not None

    # Edit the library module: the digest changes, so the entry is a miss.
    library.write_text("SIZE = 2048\n")
    digest_after = package_source_digest(str(package))
    assert digest_after != digest_before
    assert cache.get("demo", {"value": 1.0}, 1, code_version=digest_after) is None

    # Moving a file changes the digest even when no byte changes.
    library.write_text("SIZE = 5120\n")
    assert package_source_digest(str(package)) == digest_before
    library.rename(package / "experiments" / "policies.py")
    assert package_source_digest(str(package)) != digest_before


def test_campaign_reruns_when_the_digest_changes(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path / "cache"))
    runner = CampaignRunner(jobs=1, cache=cache)
    first = runner.run_campaign("fig07", seeds=[1], overrides=TINY)
    assert [o.status for o in first.outcomes] == ["ran"]
    second = runner.run_campaign("fig07", seeds=[1], overrides=TINY)
    assert [o.status for o in second.outcomes] == ["cached"]

    registry = get_registry()
    spec = registry.get("fig07")
    monkeypatch.setitem(registry._specs, "fig07",
                        dataclasses.replace(spec, source_digest="f" * 16))
    third = runner.run_campaign("fig07", seeds=[1], overrides=TINY)
    assert [o.status for o in third.outcomes] == ["ran"]


# ---------------------------------------------------------------------------
# Intra-batch dedup
# ---------------------------------------------------------------------------

def test_identical_jobs_in_one_batch_execute_once(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    runner = CampaignRunner(jobs=1, cache=cache)
    job = CampaignJob("fig07", dict(TINY), 1)
    outcomes = runner.run_jobs([job, job, CampaignJob("fig07", dict(TINY), 2)])
    assert [o.status for o in outcomes] == ["ran", "deduped", "ran"]
    assert outcomes[1].result.to_dict() == outcomes[0].result.to_dict()
    # Tuple/list canonicalization applies to dedup too.
    listy = CampaignJob("fig07", {**TINY, "rates_mbps": [0.65], "sizes_kb": [2, 3]}, 1)
    rerun = runner.run_jobs([job, listy])
    assert [o.status for o in rerun] == ["cached", "deduped"]


def test_dedup_works_through_the_process_pool():
    job = CampaignJob("fig07", dict(TINY), 1)
    outcomes = CampaignRunner(jobs=2).run_jobs([job, job])
    assert sorted(o.status for o in outcomes) == ["deduped", "ran"]
    ran = next(o for o in outcomes if o.status == "ran")
    deduped = next(o for o in outcomes if o.status == "deduped")
    assert deduped.result.to_dict() == ran.result.to_dict()


def test_different_code_versions_are_not_deduped(tmp_path, monkeypatch):
    # Identical coordinates but different code versions must both execute.
    a = CampaignJob("fig07", dict(TINY), 1, code_version="aaaa")
    b = CampaignJob("fig07", dict(TINY), 1, code_version="bbbb")
    outcomes = CampaignRunner(jobs=1).run_jobs([a, b])
    assert [o.status for o in outcomes] == ["ran", "ran"]


def test_duplicate_of_a_failed_job_inherits_the_failure(monkeypatch):
    def boom(experiment_id, params, seed):
        raise RuntimeError("job exploded")

    monkeypatch.setattr(runner_module, "execute_job", boom)
    job = CampaignJob("fig07", dict(TINY), 1)
    outcomes = CampaignRunner(jobs=1).run_jobs([job, job])
    assert [o.status for o in outcomes] == ["error", "deduped"]
    assert not outcomes[1].ok
    assert "job exploded" in outcomes[1].error


# ---------------------------------------------------------------------------
# run-all
# ---------------------------------------------------------------------------

def _stub_result(value):
    result = ExperimentResult(experiment_id="stub", description="stub")
    result.add_series(Series(label="S", x_values=[1.0], y_values=[value]))
    return result


def _stub_registry(fail_id=None):
    registry = ExperimentRegistry()
    for experiment_id in ("stub01", "stub02"):
        def make_run(eid):
            def run(value=1.0, seed=1):
                if eid == fail_id:
                    raise RuntimeError("stub failure")
                return _stub_result(value * seed)
            return run

        registry.register(ExperimentSpec(
            experiment_id=experiment_id, module_name=f"stub.{experiment_id}",
            description="stub experiment", run=make_run(experiment_id),
            parameters=(ParameterSpec("value", 1.0, ""), ParameterSpec("seed", 1, "")),
            fast_params={}, source_digest="0" * 16))
    return registry


def test_run_all_sweeps_every_registered_experiment(tmp_path, monkeypatch, capsys):
    registry = _stub_registry()
    monkeypatch.setattr(cli, "get_registry", lambda: registry)
    monkeypatch.setattr(runner_module, "get_registry", lambda: registry)
    out_dir = tmp_path / "results"
    code = main(["run-all", "--seeds", "2", "--timeout", "0",
                 "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(out_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "2 experiment(s) x 2 seed(s)" in out
    assert "all 2 experiments completed" in out
    for experiment_id in ("stub01", "stub02"):
        payload = json.loads((out_dir / f"campaign_{experiment_id}.json").read_text())
        assert payload["seeds"] == [1, 2]
        assert payload["job_stats"]["ran"] == 2

    # A second invocation is served from the cache.
    assert main(["run-all", "--seeds", "2", "--timeout", "0",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    assert "4 hit(s)" in capsys.readouterr().out


def test_run_all_reports_failing_experiments(tmp_path, monkeypatch, capsys):
    registry = _stub_registry(fail_id="stub01")
    monkeypatch.setattr(cli, "get_registry", lambda: registry)
    monkeypatch.setattr(runner_module, "get_registry", lambda: registry)
    code = main(["run-all", "--seeds", "1", "--timeout", "0", "--no-cache"])
    assert code == 1
    err = capsys.readouterr().err
    assert "stub01" in err


def test_run_all_registered_in_the_parser():
    parser = cli.build_parser()
    args = parser.parse_args(["run-all", "--seeds", "3", "--full"])
    assert args.command == "run-all"
    assert args.seeds == 3 and args.full
