"""Parameter sweeps: run a scenario family over an axis, multiple seeds per
point, and collect aggregated metrics — the shape of every figure in the
paper's evaluation.

This module builds the flat ``(x, seed)`` grid and folds results back into
per-point aggregates; a runner — in practice
:meth:`repro.analysis.runner.SweepEngine.run_results` — executes the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.analysis.stats import Aggregate, aggregate
from repro.metrics.collector import SimulationResult
from repro.scenarios.config import ScenarioConfig

#: Runs every configuration, in order, and returns one result each.
RunnerFn = Callable[[Sequence[ScenarioConfig]], List[SimulationResult]]


@dataclass(frozen=True)
class SweepPoint:
    """One x-axis value of a figure, averaged over seeds."""

    x: float
    label: str
    aggregate: Aggregate

    def metric(self, name: str) -> float:
        return self.aggregate.means[name]


def sweep_grid(
    xs: Sequence[float], seeds: Sequence[int]
) -> List[Tuple[float, int]]:
    """The flat ``(x, seed)`` evaluation order every sweep mode shares."""
    return [(x, seed) for x in xs for seed in seeds]


def points_from_results(
    xs: Sequence[float],
    grid: Sequence[Tuple[float, int]],
    results: Sequence[SimulationResult],
    label: Callable[[float], str],
) -> List[SweepPoint]:
    """Fold flat grid-ordered results back into per-x aggregates."""
    by_x: Dict[float, List[SimulationResult]] = {x: [] for x in xs}
    for (x, _seed), result in zip(grid, results):
        by_x[x].append(result)
    return [
        SweepPoint(x=x, label=label(x), aggregate=aggregate(by_x[x])) for x in xs
    ]


def sweep(
    make_config: Callable[[float, int], ScenarioConfig],
    xs: Sequence[float],
    seeds: Sequence[int],
    runner: RunnerFn,
    label: Callable[[float], str] = lambda x: f"{x:g}",
) -> List[SweepPoint]:
    """Run ``make_config(x, seed)`` for every (x, seed) pair.

    Seeds vary the mobility scenario while the traffic pattern stays tied
    to the seed stream, mirroring the paper's "identical traffic models,
    different randomly generated mobility scenarios".

    ``runner`` executes the grid (e.g.
    :meth:`repro.analysis.runner.SweepEngine.run_results`); grid order and
    aggregation do not depend on it.
    """
    grid = sweep_grid(xs, seeds)
    configs = [make_config(x, seed) for x, seed in grid]
    results = runner(configs)
    return points_from_results(xs, grid, results, label)


def compare_variants(
    variants: Dict[str, Callable[[int], ScenarioConfig]],
    seeds: Sequence[int],
    runner: RunnerFn,
) -> Dict[str, Aggregate]:
    """Run several protocol variants over the same seeds (one table row
    each), e.g. the paper's Table 3."""
    output: Dict[str, Aggregate] = {}
    for name, make_config in variants.items():
        results = runner([make_config(seed) for seed in seeds])
        output[name] = aggregate(results)
    return output
