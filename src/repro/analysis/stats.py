"""Statistics over repeated runs.

The paper averages five runs with identical traffic but different random
mobility scenarios per data point; these helpers do the same bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.metrics.collector import SimulationResult

# Two-sided 95% t-distribution critical values by degrees of freedom.
_T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262}


def mean_confidence_interval(values: Sequence[float]) -> tuple[float, float]:
    """Mean and 95% confidence half-width of ``values``."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    t = _T95.get(n - 1, 1.96)
    return mean, t * math.sqrt(variance / n)


def welch_t_statistic(
    a: Sequence[float], b: Sequence[float]
) -> tuple[float, float]:
    """Welch's t statistic and degrees of freedom for two samples.

    Used to judge whether a protocol-variant difference exceeds seed noise.
    Returns ``(0.0, 0.0)`` when either sample has fewer than two values or
    both variances are zero.
    """
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        return 0.0, 0.0
    mean_a = sum(a) / na
    mean_b = sum(b) / nb
    var_a = sum((x - mean_a) ** 2 for x in a) / (na - 1)
    var_b = sum((x - mean_b) ** 2 for x in b) / (nb - 1)
    pooled = var_a / na + var_b / nb
    if pooled == 0:
        return 0.0, 0.0
    t = (mean_a - mean_b) / math.sqrt(pooled)
    dof = pooled**2 / (
        (var_a / na) ** 2 / (na - 1) + (var_b / nb) ** 2 / (nb - 1)
    )
    return t, dof


@dataclass(frozen=True)
class Aggregate:
    """Per-metric mean and confidence half-width over a set of runs."""

    means: Dict[str, float]
    half_widths: Dict[str, float]
    runs: int

    def __getitem__(self, metric: str) -> float:
        return self.means[metric]


def aggregate(results: Sequence[SimulationResult]) -> Aggregate:
    """Average the derived metrics of several runs."""
    if not results:
        raise ValueError("no results to aggregate")
    dicts: List[Dict[str, float]] = [result.to_dict() for result in results]
    metrics = dicts[0].keys()
    means: Dict[str, float] = {}
    half_widths: Dict[str, float] = {}
    for metric in metrics:
        values = [d[metric] for d in dicts if math.isfinite(d[metric])]
        if not values:
            means[metric], half_widths[metric] = float("inf"), 0.0
            continue
        means[metric], half_widths[metric] = mean_confidence_interval(values)
    return Aggregate(means=means, half_widths=half_widths, runs=len(results))
