"""A/B comparison of protocol variants with significance marking.

Answers the question every results table begs: *is that difference real or
seed noise?*  Runs two variants over the same seeds (paired by scenario),
reports per-metric means, the delta, and a Welch-test verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.analysis.stats import mean_confidence_interval, welch_t_statistic
from repro.metrics.collector import SimulationResult
from repro.scenarios.builder import run_scenario
from repro.scenarios.config import ScenarioConfig

_DEFAULT_METRICS = ("pdf", "delay", "overhead", "good_replies_pct", "invalid_cache_pct")


@dataclass(frozen=True)
class MetricComparison:
    metric: str
    mean_a: float
    mean_b: float
    t_statistic: float
    significant: bool

    @property
    def delta(self) -> float:
        return self.mean_b - self.mean_a


@dataclass(frozen=True)
class Comparison:
    name_a: str
    name_b: str
    seeds: List[int]
    metrics: Dict[str, MetricComparison]

    def format(self) -> str:
        header = (
            f"{'metric':<24} {self.name_a:>12} {self.name_b:>12} "
            f"{'delta':>10} {'signif':>7}"
        )
        lines = [header, "-" * len(header)]
        for comparison in self.metrics.values():
            mark = "yes" if comparison.significant else "-"
            lines.append(
                f"{comparison.metric:<24} {comparison.mean_a:>12.4f} "
                f"{comparison.mean_b:>12.4f} {comparison.delta:>+10.4f} {mark:>7}"
            )
        return "\n".join(lines)


def compare(
    name_a: str,
    make_a: Callable[[int], ScenarioConfig],
    name_b: str,
    make_b: Callable[[int], ScenarioConfig],
    seeds: Sequence[int],
    metrics: Sequence[str] = _DEFAULT_METRICS,
    t_threshold: float = 2.776,
) -> Comparison:
    """Run both variants over ``seeds`` and compare metric by metric.

    The default threshold corresponds to p < 0.05 at ~4 degrees of freedom
    (five seeds, the paper's count); fewer seeds make significance
    unattainable, which is the honest answer.
    """
    results_a = [run_scenario(make_a(seed)) for seed in seeds]
    results_b = [run_scenario(make_b(seed)) for seed in seeds]
    return compare_results(name_a, results_a, name_b, results_b, seeds, metrics, t_threshold)


def compare_results(
    name_a: str,
    results_a: Sequence[SimulationResult],
    name_b: str,
    results_b: Sequence[SimulationResult],
    seeds: Sequence[int],
    metrics: Sequence[str] = _DEFAULT_METRICS,
    t_threshold: float = 2.776,
) -> Comparison:
    """Like :func:`compare` but over already-computed results."""
    table: Dict[str, MetricComparison] = {}
    for metric in metrics:
        values_a = [result.to_dict()[metric] for result in results_a]
        values_b = [result.to_dict()[metric] for result in results_b]
        finite_a = [v for v in values_a if v == v and abs(v) != float("inf")]
        finite_b = [v for v in values_b if v == v and abs(v) != float("inf")]
        mean_a, _ = mean_confidence_interval(finite_a)
        mean_b, _ = mean_confidence_interval(finite_b)
        t, dof = welch_t_statistic(finite_a, finite_b)
        table[metric] = MetricComparison(
            metric=metric,
            mean_a=mean_a,
            mean_b=mean_b,
            t_statistic=t,
            significant=dof > 0 and abs(t) > t_threshold,
        )
    return Comparison(name_a=name_a, name_b=name_b, seeds=list(seeds), metrics=table)
