"""JSON round-trips for the result dataclasses and CI-aggregation math."""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ExperimentError
from repro.stats import (
    ExperimentResult,
    Series,
    TableResult,
    aggregate_experiment_results,
    summarize,
    t_critical_95,
)


def _json_cycle(data):
    return json.loads(json.dumps(data))


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------

def test_series_roundtrip():
    series = Series(label="UA", x_values=[1.0, 2.0], y_values=[0.5, 0.7],
                    y_errors=[0.01, 0.02])
    rebuilt = Series.from_dict(_json_cycle(series.to_dict()))
    assert rebuilt == series


def test_series_roundtrip_without_errors():
    series = Series(label="NA", x_values=[1.0], y_values=[0.5])
    data = series.to_dict()
    assert "y_errors" not in data  # stays compact when no error bars exist
    assert Series.from_dict(_json_cycle(data)) == series


def test_series_add_rejects_mixed_error_bars():
    series = Series(label="UA")
    series.add(1.0, 0.5, error=0.01)
    with pytest.raises(ValueError, match="mix points"):
        series.add(2.0, 0.7)  # error bar missing
    plain = Series(label="NA")
    plain.add(1.0, 0.5)
    with pytest.raises(ValueError, match="mix points"):
        plain.add(2.0, 0.7, error=0.01)  # earlier points have no error bars


def test_table_roundtrip():
    table = TableResult(title="rate", columns=["NA", "UA"],
                        rows={"0.65": [0.25, 0.27], "1.3": [0.43, 0.48]})
    assert TableResult.from_dict(_json_cycle(table.to_dict())) == table


def test_experiment_result_roundtrip():
    result = ExperimentResult(experiment_id="figX", description="demo")
    result.add_series(Series(label="UA", x_values=[1.0], y_values=[0.5]))
    result.add_table(TableResult(title="t", columns=["a"], rows={"r": [1.0]}))
    result.add_metric("gap", 0.12)
    result.note("a note")
    rebuilt = ExperimentResult.from_dict(_json_cycle(result.to_dict()))
    assert rebuilt == result
    assert rebuilt.to_dict() == result.to_dict()


# ---------------------------------------------------------------------------
# Summary statistics (hand-computed fixture)
# ---------------------------------------------------------------------------

def test_summarize_hand_computed():
    # Sample 10, 12, 14: mean 12, sample variance ((4+0+4)/2)=4, stddev 2,
    # ci95 = t(df=2) * 2 / sqrt(3) = 4.303 * 2 / 1.7320508...
    stats = summarize([10.0, 12.0, 14.0])
    assert stats.n == 3
    assert stats.mean == pytest.approx(12.0)
    assert stats.stddev == pytest.approx(2.0)
    assert stats.ci95 == pytest.approx(4.303 * 2.0 / math.sqrt(3.0))


def test_summarize_single_value_has_zero_spread():
    stats = summarize([5.0])
    assert (stats.mean, stats.stddev, stats.ci95) == (5.0, 0.0, 0.0)


def test_summarize_empty_raises():
    with pytest.raises(ExperimentError):
        summarize([])


def test_t_critical_tails_off_to_normal():
    assert t_critical_95(1) == pytest.approx(12.706)
    assert t_critical_95(30) == pytest.approx(2.042)
    assert t_critical_95(200) == pytest.approx(1.96)


# ---------------------------------------------------------------------------
# Cross-seed aggregation
# ---------------------------------------------------------------------------

def _replica(y_ua, table_value, metric):
    result = ExperimentResult(experiment_id="figX", description="demo")
    result.add_series(Series(label="UA", x_values=[1.0, 2.0], y_values=list(y_ua)))
    result.add_table(TableResult(title="t", columns=["v"], rows={"r": [table_value]}))
    result.add_metric("gap", metric)
    return result


def test_aggregate_mean_and_ci_per_point():
    merged = aggregate_experiment_results([
        _replica([10.0, 1.0], 4.0, 0.1),
        _replica([14.0, 3.0], 8.0, 0.3),
    ])
    series = merged.get_series("UA")
    assert series.y_values == pytest.approx([12.0, 2.0])
    # n=2: ci95 = 12.706 * stddev / sqrt(2); stddev = |a-b| / sqrt(2).
    assert series.y_errors == pytest.approx(
        [12.706 * (abs(10.0 - 14.0) / math.sqrt(2.0)) / math.sqrt(2.0),
         12.706 * (abs(1.0 - 3.0) / math.sqrt(2.0)) / math.sqrt(2.0)])
    mean_table, ci_table = merged.tables
    assert mean_table.cell("r", "v") == pytest.approx(6.0)
    assert ci_table.title == "t ±ci95"
    assert merged.metrics["gap"] == pytest.approx(0.2)
    assert "gap__ci95" in merged.metrics


def test_aggregate_single_replica_keeps_values_with_zero_ci():
    merged = aggregate_experiment_results([_replica([10.0, 1.0], 4.0, 0.1)])
    assert merged.get_series("UA").y_values == [10.0, 1.0]
    assert merged.get_series("UA").y_errors == [0.0, 0.0]
    assert len(merged.tables) == 1  # no ±ci95 companion for n=1
    assert "gap__ci95" not in merged.metrics


def test_aggregate_rejects_misaligned_replicas():
    good = _replica([10.0, 1.0], 4.0, 0.1)
    other_x = _replica([10.0, 1.0], 4.0, 0.1)
    other_x.get_series("UA").x_values = [1.0, 3.0]
    with pytest.raises(ExperimentError, match="x-values"):
        aggregate_experiment_results([good, other_x])
    other_id = _replica([10.0, 1.0], 4.0, 0.1)
    other_id.experiment_id = "figY"
    with pytest.raises(ExperimentError, match="cannot aggregate"):
        aggregate_experiment_results([good, other_id])
    extra_metric = _replica([10.0, 1.0], 4.0, 0.1)
    extra_metric.add_metric("extra", 1.0)
    for order in ([good, extra_metric], [extra_metric, good]):
        with pytest.raises(ExperimentError, match="metric names"):
            aggregate_experiment_results(order)
    with pytest.raises(ExperimentError):
        aggregate_experiment_results([])
