"""Cache behavior, campaign execution (inline and multiprocess) and the CLI.

The real fig07 runner is used throughout with a tiny override sweep so these
tests exercise the genuine registry → runner → cache → aggregate path while
staying fast.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil

import pytest

from repro.campaign.cache import ResultCache, job_key
from repro.campaign.cli import main
from repro.campaign.runner import CampaignJob, CampaignRunner
from repro.errors import ExperimentError
from repro.stats.results import ExperimentResult, Series

#: Tiny fig07 sweep: 2 sizes x 1 rate x 1.5 simulated seconds per job.
TINY = {"rates_mbps": (0.65,), "sizes_kb": (2, 3), "duration": 1.5}


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

def _result_dict(value):
    result = ExperimentResult(experiment_id="figX", description="demo")
    result.add_series(Series(label="UA", x_values=[1.0], y_values=[value]))
    return result.to_dict()


def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    params = {"duration": 1.5, "rates_mbps": (0.65,)}
    assert cache.get("figX", params, 1) is None
    cache.put("figX", params, 1, _result_dict(0.5))
    assert cache.get("figX", params, 1) == _result_dict(0.5)
    assert (cache.hits, cache.misses) == (1, 1)


def test_cache_key_distinguishes_all_coordinates():
    params = {"duration": 1.5}
    base = job_key("figX", params, 1)
    assert job_key("figX", params, 2) != base
    assert job_key("figY", params, 1) != base
    assert job_key("figX", {"duration": 2.0}, 1) != base


def test_cache_key_canonicalizes_tuples_and_key_order():
    assert (job_key("figX", {"a": (1, 2), "b": 3.0}, 1)
            == job_key("figX", {"b": 3.0, "a": [1, 2]}, 1))


def test_cache_preserves_series_and_row_order(tmp_path):
    cache = ResultCache(str(tmp_path))
    result = ExperimentResult(experiment_id="figX", description="demo")
    for label in ("NA", "UA", "BA"):  # deliberately not alphabetical
        result.add_series(Series(label=label, x_values=[1.0], y_values=[0.5]))
    params = {"duration": 1.5}
    cache.put("figX", params, 1, result.to_dict())
    cached = ExperimentResult.from_dict(cache.get("figX", params, 1))
    assert list(cached.series) == ["NA", "UA", "BA"]


def test_cache_ignores_corrupt_entries(tmp_path):
    cache = ResultCache(str(tmp_path))
    params = {"duration": 1.5}
    path = cache.put("figX", params, 1, _result_dict(0.5))
    for corrupt in ("{not json", '{"valid_json": "but no result key"}'):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(corrupt)
        assert cache.get("figX", params, 1) is None


def test_cache_rejects_colliding_entry_with_wrong_coordinates(tmp_path):
    """A filename collision must read as a miss, not serve another job's data.

    File names embed only 16 hex characters of the job key, so two distinct
    jobs can map to the same path.  Regression: ``get`` used to trust the
    path alone and return whatever entry sat there.  Forge a collision by
    writing job A's entry at job B's path and check B misses while a
    coordinate-faithful entry still hits.
    """
    cache = ResultCache(str(tmp_path))
    params_a = {"duration": 1.5}
    params_b = {"duration": 99.0}
    path_a = cache.put("figX", params_a, 1, _result_dict(0.5))
    path_b = cache._path("figX", 1, job_key("figX", params_b, 1))
    shutil.copyfile(path_a, path_b)  # the forged collision
    assert cache.get("figX", params_b, 1) is None
    assert cache.get("figX", params_a, 1) == _result_dict(0.5)


def test_cache_verification_survives_tuple_list_round_trip(tmp_path):
    """Tuples in params come back as JSON lists; that must still verify as a hit."""
    cache = ResultCache(str(tmp_path))
    params = {"rates_mbps": (0.65, 1.3), "duration": 1.5}
    cache.put("figX", params, 3, _result_dict(0.7))
    assert cache.get("figX", params, 3) == _result_dict(0.7)
    assert cache.get("figX", {"rates_mbps": [0.65, 1.3], "duration": 1.5}, 3) \
        == _result_dict(0.7)


# ---------------------------------------------------------------------------
# Campaign runner
# ---------------------------------------------------------------------------

def test_campaign_inline_then_cached(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    runner = CampaignRunner(jobs=1, cache=cache)
    first = runner.run_campaign("fig07", seeds=[1, 2], overrides=TINY)
    assert [o.status for o in first.outcomes] == ["ran", "ran"]
    series = first.aggregate.get_series("0.65 Mbps")
    assert len(series.y_values) == len(series.y_errors) == 2

    second = runner.run_campaign("fig07", seeds=[1, 2], overrides=TINY)
    assert [o.status for o in second.outcomes] == ["cached", "cached"]
    assert second.aggregate.to_dict() == first.aggregate.to_dict()

    # A new seed is incremental: two hits, one fresh execution.
    third = runner.run_campaign("fig07", seeds=[1, 2, 3], overrides=TINY)
    assert sorted(o.status for o in third.outcomes) == ["cached", "cached", "ran"]


def test_campaign_multiprocess_matches_inline(tmp_path):
    inline = CampaignRunner(jobs=1).run_campaign("fig07", seeds=[1, 2], overrides=TINY)
    pooled = CampaignRunner(jobs=2).run_campaign("fig07", seeds=[1, 2], overrides=TINY)
    # Cross-process determinism: a worker must reproduce the in-process run
    # byte for byte, or the cache and the CI smoke test are meaningless.
    assert pooled.replicas[1].to_dict() == inline.replicas[1].to_dict()
    assert pooled.aggregate.to_dict() == inline.aggregate.to_dict()


def test_campaign_failure_reporting():
    # duration <= warmup makes run_udp_saturation raise inside every job.
    runner = CampaignRunner(jobs=1)
    with pytest.raises(ExperimentError, match="every job"):
        runner.run_campaign("table02", seeds=[1],
                            overrides={"rates_mbps": (0.65,), "duration": 0.5})


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="monkeypatch reaches pool workers only under fork")
def test_pool_distinguishes_job_raised_timeouterror(monkeypatch):
    # concurrent.futures.TimeoutError aliases builtin TimeoutError on 3.11+;
    # a job raising it must be recorded as an "error", not a pool timeout.
    def boom(experiment_id, params, seed):
        raise TimeoutError("raised inside the job")

    monkeypatch.setattr("repro.campaign.runner.execute_job", boom)
    runner = CampaignRunner(jobs=2, timeout=60.0)
    outcomes = runner.run_jobs([CampaignJob("fig07", dict(TINY), 1)])
    assert outcomes[0].status == "error"
    assert "raised inside the job" in outcomes[0].error


def test_run_jobs_preserves_batch_order(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    runner = CampaignRunner(jobs=1, cache=cache)
    params = CampaignJob("fig07", dict(TINY), 1).params
    batch = [CampaignJob("fig07", params, seed) for seed in (2, 1)]
    outcomes = runner.run_jobs(batch)
    assert [o.job.seed for o in outcomes] == [2, 1]
    assert [o.status for o in outcomes] == ["ran", "ran"]
    # A follow-up batch overlapping the first is served incrementally.
    rerun = runner.run_jobs(batch + [CampaignJob("fig07", params, 3)])
    assert [o.status for o in rerun] == ["cached", "cached", "ran"]


def test_runner_validates_inputs():
    with pytest.raises(ExperimentError):
        CampaignRunner(jobs=0)
    with pytest.raises(ExperimentError):
        CampaignRunner().run_campaign("fig07", seeds=[])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig09" in out and "table08" in out


def test_cli_run_and_report_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "fig07.json"
    argv = ["run", "fig07", "--seeds", "2", "--jobs", "1",
            "--set", "rates_mbps=(0.65,)", "--set", "sizes_kb=(2, 3)",
            "--set", "duration=1.5",
            "--cache-dir", str(tmp_path / "cache"), "--out", str(out_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "0 hit(s), 2 miss(es)" in first

    # Second invocation is served entirely from the cache.
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "2 hit(s), 0 miss(es)" in second

    payload = json.loads(out_path.read_text())
    series = payload["aggregate"]["series"]["0.65 Mbps"]
    assert len(series["y_values"]) == len(series["y_errors"]) == 2
    assert payload["job_stats"] == {"ran": 0, "cached": 2, "deduped": 0, "failed": 0}

    assert main(["report", str(out_path), "--replicas"]) == 0
    report = capsys.readouterr().out
    assert "replica seed=2" in report


def test_cli_unknown_experiment_exits_nonzero(capsys):
    assert main(["run", "fig99", "--seeds", "1"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_malformed_set_pair_exits_with_usage(capsys):
    assert main(["run", "fig07", "--no-cache", "--set", "x"]) == 2
    assert "error: --set expects name=value, got 'x'" in capsys.readouterr().err


def test_cli_report_unreadable_file_exits_cleanly(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope.json")]) == 2
    assert "cannot read results file" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    for content in ("{broken", "[1, 2, 3]", '{"experiment_id": "x", "aggregate": null}'):
        bad.write_text(content)
        assert main(["report", str(bad)]) == 2
        assert "cannot read results file" in capsys.readouterr().err


def test_cli_report_flags_missing_replicas(tmp_path, capsys):
    result = ExperimentResult(experiment_id="figX", description="demo")
    result.add_series(Series(label="UA", x_values=[1.0], y_values=[0.5]))
    payload = {
        "experiment_id": "figX", "params": {}, "seeds": [1, 2, 3],
        "aggregate": result.to_dict(), "replicas": {"1": result.to_dict(),
                                                    "2": result.to_dict()},
        "job_stats": {"ran": 2, "cached": 0, "failed": 1},
    }
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(payload))
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "WARNING: 1 job(s) failed" in out and "seed(s) [3]" in out
