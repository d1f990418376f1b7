"""The seven workloads: what they simulate, at what size, and why.

Every scenario is generated here from ``(seed, k)``; the program under
test only ever sees the resulting ``ScenarioConfig``s.  ``k`` is the
scenario index inside one run: of every five repeats four are distinct
scenario seeds (so one unlucky topology cannot set the number) and the
fifth re-runs an earlier one, a fresh-process determinism check (see
``scenario_index``).

Sizes are the issue's sizes shrunk to fit the driver's cap (158 runs in
3420 s): one factor ``t`` per workload multiplies every simulated-time
quantity (duration, start window, pause) so that a repeat measures about
1.6 s, and two workloads are shrunk once more because their cost is not
proportional to simulated time — see ``README.md`` ("Sizes").  ``scale``
shrinks further for ``--smoke``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List

#: Worker processes of the sweep engine and the fleet: this host has 2 CPUs.
PROCESSES = 2

#: Share of the issue's simulated time a repeat runs, so that it measures
#: ~1.6 s here (``lossy30_static`` half of it, the fig-2 grid 0.15).
TIME_FACTOR = 0.1875

#: Entries pre-populated (set-up) and then resolved (timed) by ``sweep_warm``.
WARM_ENTRIES = 2000


def scenario_index(i: int, repeats: int) -> int:
    """Which scenario repeat ``i`` of ``repeats`` runs: ``0, 1, 2, ...`` and,
    for the last fifth of the repeats, ``0, 1, ...`` again."""
    distinct = repeats - repeats // 5
    return i if i < distinct else i - distinct


def scenario_seed(seed: int, k: int) -> int:
    """The scenario seed of scenario ``k`` of run seed ``seed``.

    Spaced so two run seeds never share a scenario (the sweep grids use
    ``scenario_seed`` and ``scenario_seed + 1``; a run has < 100 scenarios).
    """
    return 1000 * seed + 10 * k


def _mobile30_base(seed: int, scale: float) -> Any:
    from repro.scenarios.presets import scaled_scenario

    t = TIME_FACTOR * scale
    return scaled_scenario(pause_time=0.0, seed=seed, duration=300.0 * t).but(
        start_window=10.0 * t
    )


def _paper100_all(seed: int, scale: float) -> Any:
    from repro.core.config import DsrConfig
    from repro.scenarios.presets import paper_scenario

    t = TIME_FACTOR * scale
    return paper_scenario(
        pause_time=0.0, seed=seed, dsr=DsrConfig.all_techniques()
    ).but(duration=12.0 * t, start_window=10.0 * t)


def _lossy30_static(seed: int, scale: float) -> Any:
    from repro.scenarios.presets import lossy_scenario

    t = TIME_FACTOR / 2 * scale
    return lossy_scenario(link_loss=0.2, seed=seed).but(
        duration=300.0 * t, pause_time=300.0 * t, start_window=10.0 * t
    )


def _flood1000(seed: int, scale: float) -> Any:
    from repro.scenarios.presets import paper_scenario

    # Cost follows the number of discovery floods, not simulated time: the
    # issue's 8 sessions become 3 to bring one repeat to ~1.2 s.
    t = TIME_FACTOR * scale
    return paper_scenario(pause_time=0.0, seed=seed).but(
        num_nodes=1000,
        field_width=6957.0,
        field_height=1897.0,
        duration=4.0 * t,
        num_sessions=3,
        start_window=2.0 * t,
    )


def fig2_grid(seed: int, scale: float) -> List[Any]:
    """The ``BENCH_sweep.json`` grid: base + AllTechniques x 3 pauses x 2 seeds."""
    from repro.core.config import DsrConfig
    from repro.scenarios.presets import scaled_scenario

    t = 0.15 * scale
    duration = 40.0 * t
    return [
        scaled_scenario(
            pause_time=pause, dsr=dsr, seed=grid_seed, duration=duration
        ).but(start_window=10.0 * t)
        for dsr in (DsrConfig.base(), DsrConfig.all_techniques())
        for pause in (0.0, duration / 2.0, duration)
        for grid_seed in (seed, seed + 1)
    ]


def warm_configs(seed: int, scale: float) -> List[Any]:
    """Distinct keys for ``sweep_warm``.

    The first config is simulated once in set-up; its result is stored
    under every key, so the timed section reads ``count`` real entries
    without set-up having to run ``count`` simulations.
    """
    from repro.scenarios.presets import scaled_scenario

    base = scaled_scenario(pause_time=0.0, seed=seed, duration=2.0).but(
        start_window=1.0
    )
    count = max(50, int(WARM_ENTRIES * scale))
    return [base] + [base.but(seed=seed * 10_000 + i) for i in range(1, count)]


@dataclass(frozen=True)
class Workload:
    """What the child needs to run a workload; the reason each one exists
    is its ``why`` in ``BENCHMARK.json``."""

    name: str
    kind: str  # "sim" | "sweep_cold" | "sweep_warm" | "service"
    busy: int  # CPUs one repeat keeps busy
    unit: str  # what one work unit of the per-unit metrics is
    configs: Callable[[int, float], Any]


_FRAME = "simulated frame transmission (MAC control + data + routing, per hop)"
_CONFIG = "config resolved from the result cache"

WORKLOADS = {
    w.name: w
    for w in (
        Workload("mobile30_base", "sim", 1, _FRAME, _mobile30_base),
        Workload("paper100_all", "sim", 1, _FRAME, _paper100_all),
        Workload("lossy30_static", "sim", 1, _FRAME, _lossy30_static),
        Workload("flood1000", "sim", 1, _FRAME, _flood1000),
        Workload("sweep_fig2", "sweep_cold", PROCESSES, _FRAME, fig2_grid),
        Workload("sweep_warm", "sweep_warm", 1, _CONFIG, warm_configs),
        Workload("service_fig2", "service", PROCESSES, _FRAME, fig2_grid),
    )
}
