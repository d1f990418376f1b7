"""Aggregation and presentation of simulation results: multi-seed averaging
with confidence intervals, and ASCII renderings of the paper's tables and
figure series."""

from repro.analysis.stats import Aggregate, aggregate, mean_confidence_interval
from repro.analysis.series import SweepPoint, compare_variants, sweep
from repro.analysis.tables import format_table, format_series
from repro.analysis.plot import render_chart
from repro.analysis.export import result_to_json
from repro.analysis.cache import CacheStats, ResultCache, scenario_hash
from repro.analysis.runner import RunReport, SweepEngine, SweepExecutionError, run_many
from repro.analysis.compare import Comparison, compare, compare_results
from repro.analysis.topology import (
    average_degree,
    average_path_length,
    link_lifetimes,
)

__all__ = [
    "Aggregate",
    "aggregate",
    "mean_confidence_interval",
    "SweepPoint",
    "sweep",
    "compare_variants",
    "format_table",
    "format_series",
    "render_chart",
    "result_to_json",
    "run_many",
    "CacheStats",
    "ResultCache",
    "scenario_hash",
    "SweepEngine",
    "SweepExecutionError",
    "RunReport",
    "compare",
    "compare_results",
    "Comparison",
    "link_lifetimes",
    "average_degree",
    "average_path_length",
]
