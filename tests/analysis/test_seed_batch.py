"""One ``run()`` batch of replicated grid points through the single dispatch
path: planning order and pooling may change cost, never results — pooled ==
serial, dedupe + cache hold, a failing task fails and retries alone.
"""

from __future__ import annotations

import pytest

from repro.analysis.cache import ResultCache
from repro.analysis.runner import SweepEngine, SweepExecutionError, run_many
from repro.scenarios.builder import run_scenario
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.io import scenario_from_dict


def _config(seed: int = 1, **changes) -> ScenarioConfig:
    base = dict(
        num_nodes=6,
        field_width=400.0,
        field_height=300.0,
        duration=5.0,
        num_sessions=2,
        packet_rate=1.0,
        start_window=2.0,
        seed=seed,
    )
    base.update(changes)
    return ScenarioConfig(**base)


def test_batched_results_equal_unbatched():
    configs = [_config(seed=s) for s in (1, 2, 3)] + [
        _config(seed=s, pause_time=5.0) for s in (1, 2)
    ]
    # One batch (planned costliest-first, pause 0 ahead of pause 5) returns
    # what one run per config returns, in submission order.
    one_by_one = [run_many([config], processes=1)[0] for config in configs]
    assert run_many(configs, processes=1) == one_by_one


def test_batched_pooled_results_equal_serial():
    """Spawned-pool execution of a batch must match in-process results."""
    configs = [_config(seed=s, duration=3.0) for s in (1, 2, 3, 4)]
    serial = run_many(configs, processes=1)
    pooled = run_many(configs, processes=2)
    assert pooled == serial


def test_batched_engine_still_dedupes_and_caches(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    engine = SweepEngine(processes=1, cache=cache)
    configs = [_config(seed=1), _config(seed=2), _config(seed=1)]
    report = engine.run(configs)
    assert report.executed == 2  # duplicate seed-1 config collapsed
    assert report.deduped == 1
    # A fresh engine over the same cache simulates nothing.
    warm = SweepEngine(processes=1, cache=cache).run(configs)
    assert warm.executed == 0
    assert warm.cache_hits == 2
    assert warm.results == report.results


def test_failures_in_a_batch_fail_alone_and_retry():
    """One bad payload must not poison the rest of its batch, and is the
    only task the retry pass runs again."""
    calls = {"count": 0}

    def flaky(payload: dict):
        if payload["seed"] == 2:
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("transient")
        return scenario_from_dict(payload).seed

    engine = SweepEngine(processes=1, task_fn=flaky, retries=1)
    report = engine.run([_config(seed=s) for s in (1, 2, 3)])
    assert report.results == [1, 2, 3]
    assert report.retries == 1 and calls["count"] == 2

    def always_bad(payload: dict):
        if payload["seed"] == 2:
            raise RuntimeError("permanent")
        return scenario_from_dict(payload).seed

    engine = SweepEngine(processes=1, task_fn=always_bad, retries=1)
    with pytest.raises(SweepExecutionError) as raised:
        engine.run([_config(seed=s) for s in (1, 2, 3)])
    assert len(raised.value.failures) == 1


def test_run_many_accepts_mixed_grid_points():
    """Replications of two grid points submitted interleaved (the planner
    runs the 8-node pair first) come back in submission order."""
    configs = [
        _config(seed=1),
        _config(seed=1, num_nodes=8),
        _config(seed=2, num_nodes=8),
        _config(seed=2),
    ]
    assert run_many(configs) == [run_scenario(config) for config in configs]
