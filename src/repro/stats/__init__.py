"""Result collection, aggregation and formatting."""

from repro.stats.results import ExperimentResult, Series, TableResult
from repro.stats.collect import node_frame_sizes, transmission_percentages
from repro.stats.aggregate import (
    SummaryStats,
    aggregate_experiment_results,
    summarize,
    t_critical_95,
)
from repro.stats.svg import render_svg, write_svg

__all__ = [
    "render_svg",
    "write_svg",
    "ExperimentResult",
    "Series",
    "TableResult",
    "SummaryStats",
    "aggregate_experiment_results",
    "summarize",
    "t_critical_95",
    "node_frame_sizes",
    "transmission_percentages",
]
