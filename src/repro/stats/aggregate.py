"""Cross-seed aggregation of experiment results.

The campaign layer (:mod:`repro.campaign`) replicates every experiment over N
seeds; this module condenses the per-seed :class:`~repro.stats.results.ExperimentResult`
objects into one result whose series carry per-point means and 95% confidence
intervals (stored as :attr:`~repro.stats.results.Series.y_errors`), whose
tables hold cell-wise means (with a companion ``±ci95`` table when N > 1) and
whose metrics hold means plus ``<name>__ci95`` entries.

Confidence intervals use the two-sided Student-t critical value for the
sample size at hand (falling back to the normal 1.96 beyond 30 degrees of
freedom), so small seed counts are not over-confident.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import ExperimentError
from repro.stats.results import ExperimentResult, Series, TableResult

#: Two-sided 95% Student-t critical values indexed by degrees of freedom.
_T_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}
#: Normal approximation used past the end of the t table.
_Z_95 = 1.96


def t_critical_95(degrees_of_freedom: int) -> float:
    """Two-sided 95% Student-t critical value (normal 1.96 past df=30)."""
    if degrees_of_freedom < 1:
        raise ExperimentError("confidence interval needs at least 2 samples")
    return _T_95.get(degrees_of_freedom, _Z_95)


@dataclass(frozen=True)
class SummaryStats:
    """Mean, sample standard deviation and 95% CI half-width of one metric."""

    n: int
    mean: float
    stddev: float
    ci95: float


def summarize(values: Sequence[float]) -> SummaryStats:
    """Summarize a sample: mean, sample stddev (n-1) and 95% CI half-width.

    A single-value sample has zero spread by convention (stddev = ci95 = 0),
    which lets one-seed campaign runs flow through the same code path.
    """
    n = len(values)
    if n == 0:
        raise ExperimentError("cannot summarize an empty sample")
    mean = sum(values) / n
    if n == 1:
        return SummaryStats(n=1, mean=mean, stddev=0.0, ci95=0.0)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    stddev = math.sqrt(variance)
    ci95 = t_critical_95(n - 1) * stddev / math.sqrt(n)
    return SummaryStats(n=n, mean=mean, stddev=stddev, ci95=ci95)


def _check_alignment(results: Sequence[ExperimentResult]) -> None:
    """Every replica must describe the same experiment shape."""
    first = results[0]
    for other in results[1:]:
        if other.experiment_id != first.experiment_id:
            raise ExperimentError(
                f"cannot aggregate {other.experiment_id!r} with {first.experiment_id!r}")
        if set(other.series) != set(first.series):
            raise ExperimentError(
                f"series labels differ between replicas of {first.experiment_id!r}")
        for label, series in first.series.items():
            if other.series[label].x_values != series.x_values:
                raise ExperimentError(
                    f"x-values of series {label!r} differ between replicas")
        if len(other.tables) != len(first.tables):
            raise ExperimentError(
                f"table counts differ between replicas of {first.experiment_id!r}")
        for table, other_table in zip(first.tables, other.tables):
            if other_table.columns != table.columns or set(other_table.rows) != set(table.rows):
                raise ExperimentError(
                    f"table shape of {table.title!r} differs between replicas")
        if set(other.metrics) != set(first.metrics):
            raise ExperimentError(
                f"metric names differ between replicas of {first.experiment_id!r}")


def aggregate_experiment_results(results: Sequence[ExperimentResult]) -> ExperimentResult:
    """Merge per-seed replicas of one experiment into a mean ± 95% CI result."""
    if not results:
        raise ExperimentError("cannot aggregate zero results")
    _check_alignment(results)
    first = results[0]
    n = len(results)
    merged = ExperimentResult(
        experiment_id=first.experiment_id,
        description=first.description,
    )

    for label, series in first.series.items():
        replicas = [r.series[label] for r in results]
        mean_series = Series(label=label)
        for i, x in enumerate(series.x_values):
            stats = summarize([rep.y_values[i] for rep in replicas])
            mean_series.add(x, stats.mean, error=stats.ci95)
        merged.add_series(mean_series)

    for table_index, table in enumerate(first.tables):
        replicas = [r.tables[table_index] for r in results]
        mean_table = TableResult(title=table.title, columns=list(table.columns))
        ci_table = TableResult(title=f"{table.title} ±ci95", columns=list(table.columns))
        for row_name in table.rows:
            stats_row = [summarize([rep.rows[row_name][col] for rep in replicas])
                         for col in range(len(table.columns))]
            mean_table.add_row(row_name, [s.mean for s in stats_row])
            ci_table.add_row(row_name, [s.ci95 for s in stats_row])
        merged.add_table(mean_table)
        if n > 1:
            merged.add_table(ci_table)

    for name in first.metrics:
        stats = summarize([r.metrics[name] for r in results])
        merged.add_metric(name, stats.mean)
        if n > 1:
            merged.add_metric(f"{name}__ci95", stats.ci95)

    merged.notes = list(first.notes)
    merged.note(f"aggregated over {n} replica(s); series y_errors and __ci95 "
                f"metrics are 95% confidence half-widths")
    return merged
