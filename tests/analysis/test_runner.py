"""Tests for the sweep execution engine (parallel + cached runner)."""

import contextlib
import multiprocessing
import os
import sys
import tempfile
import threading

import pytest

from repro.analysis.cache import ResultCache, scenario_hash
from repro.analysis.runner import (
    SweepEngine,
    SweepExecutionError,
    _run_payload,
    estimate_cost,
    run_many,
)
from repro.analysis.series import sweep
from repro.scenarios.builder import run_scenario
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.io import scenario_from_dict, scenario_to_dict

from tests.helpers import watchdog


def _config(seed=1, pause=0.0, duration=12.0):
    return ScenarioConfig(
        num_nodes=10,
        field_width=500.0,
        field_height=300.0,
        duration=duration,
        num_sessions=3,
        pause_time=pause,
        seed=seed,
    )


def _raise_in_worker(payload):
    """Fails inside pool workers, succeeds when retried in the parent."""
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("injected worker failure")
    return _run_payload(payload)


def _die_in_worker(payload):
    """Takes its pool worker down with it, succeeds when retried in the parent."""
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return _run_payload(payload)


def _always_fail(payload):
    raise ValueError("this task never succeeds")


# -- historic API ------------------------------------------------------------


def test_run_many_in_process():
    results = run_many([_config(seed=1), _config(seed=2)], processes=1)
    assert len(results) == 2
    assert results[0] != results[1]  # different seeds


def test_run_many_matches_direct_execution():
    from repro.scenarios.builder import run_scenario

    [result] = run_many([_config(seed=3)], processes=1)
    assert result == run_scenario(_config(seed=3))


def test_run_many_parallel_matches_serial():
    configs = [_config(seed=s) for s in (1, 2)]
    serial = run_many(configs, processes=1)
    parallel = run_many(configs, processes=2)
    assert serial == parallel


def test_parallel_sweep_shapes():
    points = SweepEngine(processes=1).sweep(
        lambda pause, seed: _config(seed=seed, pause=pause),
        xs=[0.0, 12.0],
        seeds=[1, 2],
    )
    assert [point.x for point in points] == [0.0, 12.0]
    assert all(point.aggregate.runs == 2 for point in points)


# -- caching and dedup -------------------------------------------------------


def test_duplicate_configs_simulate_once():
    executed = []

    def counting(payload):
        executed.append(payload["seed"])
        return _run_payload(payload)

    engine = SweepEngine(processes=1, task_fn=counting)
    report = engine.run([_config(seed=1), _config(seed=2), _config(seed=1)])
    assert sorted(executed) == [1, 2]
    assert report.executed == 2
    assert report.deduped == 1
    assert report.results[0] == report.results[2]


def test_session_memo_dedupes_across_batches():
    # The paper's figures share their pause-0 points; one engine must only
    # simulate them once per session.
    engine = SweepEngine(processes=1)
    engine.run([_config(seed=1)])
    report = engine.run([_config(seed=1), _config(seed=2)])
    assert report.executed == 1
    assert report.deduped == 1
    assert engine.session_stats()["executed"] == 2


def test_warm_cache_executes_zero_simulations(tmp_path):
    configs = [_config(seed=s) for s in (1, 2)]
    cold = SweepEngine(processes=1, cache=ResultCache(tmp_path))
    cold_report = cold.run(configs)
    assert cold_report.executed == 2

    executed = []

    def counting(payload):  # pragma: no cover - must never run
        executed.append(payload["seed"])
        return _run_payload(payload)

    warm = SweepEngine(processes=1, cache=ResultCache(tmp_path), task_fn=counting)
    warm_report = warm.run(configs)
    assert executed == []
    assert warm_report.executed == 0
    assert warm_report.cache_hits == 2
    assert warm_report.results == cold_report.results
    assert warm_report.cache_stats.hits == 2


def test_cached_and_fresh_results_interleave_identically(tmp_path):
    # Prewarm only the middle config; in both degrade modes the cached
    # result must land at the same index among freshly simulated ones.
    configs = [_config(seed=s) for s in (1, 2, 3)]
    prewarm = ResultCache(tmp_path)
    [middle] = run_many([configs[1]], processes=1)
    prewarm.put(scenario_hash(configs[1]), middle)

    in_process = run_many(configs, processes=1, cache=ResultCache(tmp_path))
    pooled = run_many(configs, processes=2, cache=ResultCache(tmp_path))
    assert in_process == pooled
    assert in_process == run_many(configs, processes=1)


@contextlib.contextmanager
def _parked_thread():
    """A second Python thread, alive for the block and joined after it."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        yield
    finally:
        release.set()
        thread.join()


class _StartMethodCache(ResultCache):
    """A cache that notes the start method of every live pool worker each
    time the parent stores a result, which it does mid-drain."""

    def __init__(self, root):
        super().__init__(root)
        self.methods = set()

    def put(self, key, result):
        self.methods.update(p._start_method for p in multiprocessing.active_children())
        return super().put(key, result)


def _pooled_run(configs):
    """``SweepEngine(processes=2).run`` and the start method of its workers."""
    with tempfile.TemporaryDirectory() as root:
        cache = _StartMethodCache(root)
        report = SweepEngine(processes=2, cache=cache).run(configs)
    return report.results, cache.methods


def test_parallel_cached_sweep_equals_serial_sweep(tmp_path):
    make = lambda pause, seed: _config(seed=seed, pause=pause)  # noqa: E731
    xs, seeds = [0.0, 12.0], [1, 2]
    # In-process first: whatever module state a simulation leaves behind is
    # there for a forked pool to inherit, and must not reach its results.
    serial = sweep(make, xs, seeds, lambda configs: [run_scenario(c) for c in configs])
    configs = [make(x, seed) for x in xs for seed in seeds]
    expected = run_many(configs, processes=1)

    # The start-method rule: fork on Linux from a caller with one Python
    # thread, spawn while another thread is alive.
    assert threading.active_count() == 1, "a thread leaked from an earlier test"
    forked, methods = _pooled_run(configs)
    assert methods == {"fork" if sys.platform == "linux" else "spawn"}
    assert forked == expected
    with _parked_thread():
        spawned, methods = _pooled_run(configs)
    assert methods == {"spawn"}
    assert spawned == expected

    engine = SweepEngine(processes=2, cache=ResultCache(tmp_path))
    assert engine.sweep(make, xs, seeds) == serial
    # And again warm: zero fresh simulations, identical points.
    warm = SweepEngine(processes=2, cache=ResultCache(tmp_path))
    assert warm.sweep(make, xs, seeds) == serial
    assert warm.session_stats()["executed"] == 0


# -- failure handling --------------------------------------------------------


def test_flaky_task_is_retried_in_process():
    attempts = []

    def flaky(payload):
        attempts.append(payload["seed"])
        if len(attempts) == 1:
            raise RuntimeError("transient")
        return _run_payload(payload)

    engine = SweepEngine(processes=1, retries=1, task_fn=flaky)
    report = engine.run([_config(seed=5)])
    assert len(attempts) == 2
    assert report.retries == 1
    assert report.results == run_many([_config(seed=5)], processes=1)


def test_crashed_worker_is_retried_in_parent():
    configs = [_config(seed=s) for s in (1, 2)]
    engine = SweepEngine(processes=2, retries=1, task_fn=_raise_in_worker)
    report = engine.run(configs)
    assert report.retries == 2  # both tasks failed in workers, retried OK
    assert report.results == run_many(configs, processes=1)


def test_dead_worker_is_retried_in_parent():
    """A worker that exits mid-task takes its task with it (and, the pool
    being broken, every task still out): all of them are failures like any
    other.  ``multiprocessing.Pool`` replaced the worker, lost the task and
    blocked forever — hence the watchdog."""
    configs = [_config(seed=s) for s in (1, 2)]
    engine = SweepEngine(processes=2, retries=1, task_fn=_die_in_worker)
    with watchdog(60):
        report = engine.run(configs)
    assert report.retries == 2
    assert report.results == run_many(configs, processes=1)
    assert multiprocessing.active_children() == []  # joined before run returned


def test_persistent_failure_is_surfaced_not_dropped():
    engine = SweepEngine(processes=1, retries=2, task_fn=_always_fail)
    with pytest.raises(SweepExecutionError) as excinfo:
        engine.run([_config(seed=7)])
    assert excinfo.value.failures  # the per-task error text survives
    assert "ValueError" in str(excinfo.value)


def test_zero_retries_fails_fast():
    engine = SweepEngine(processes=1, retries=0, task_fn=_always_fail)
    with pytest.raises(SweepExecutionError):
        engine.run([_config(seed=7)])


# -- scheduling --------------------------------------------------------------


def test_cost_estimate_orders_hard_points_first():
    quick = scenario_to_dict(_config(pause=12.0, duration=12.0))
    constant_motion = scenario_to_dict(_config(pause=0.0, duration=12.0))
    long_run = scenario_to_dict(_config(pause=0.0, duration=24.0))
    loaded = scenario_to_dict(
        ScenarioConfig(
            num_nodes=10,
            field_width=500.0,
            field_height=300.0,
            duration=12.0,
            num_sessions=6,
            packet_rate=6.0,
            seed=1,
        )
    )
    crowded = scenario_to_dict(_config(pause=0.0, duration=12.0).but(num_nodes=40))
    assert estimate_cost(constant_motion) > estimate_cost(quick)
    assert estimate_cost(long_run) > estimate_cost(constant_motion)
    assert estimate_cost(loaded) > estimate_cost(constant_motion)
    assert estimate_cost(crowded) > estimate_cost(constant_motion)


# -- run manifest ------------------------------------------------------------


def test_report_records_per_task_walls():
    engine = SweepEngine(processes=1)
    report = engine.run([_config(seed=1), _config(seed=2), _config(seed=1)])
    # One wall per executed simulation, keyed by scenario hash.
    assert set(report.task_walls) == {
        scenario_hash(_config(seed=1)),
        scenario_hash(_config(seed=2)),
    }
    assert all(wall > 0.0 for wall in report.task_walls.values())
    assert engine.total_task_wall_s == pytest.approx(
        sum(report.task_walls.values())
    )


def test_manifest_written_next_to_cache(tmp_path):
    import json

    cache = ResultCache(tmp_path)
    engine = SweepEngine(processes=1, cache=cache)
    engine.run([_config(seed=1)])
    engine.run([_config(seed=1), _config(seed=2)])

    manifest = tmp_path / "manifest.jsonl"
    assert engine.manifest_path == manifest
    lines = [json.loads(line) for line in manifest.read_text().splitlines()]
    assert [entry["batch"] for entry in lines] == [1, 2]
    first, second = lines
    assert first["executed"] == 1
    assert len(first["tasks"]) == 1
    assert first["tasks"][0]["wall_s"] > 0.0
    assert first["cache"]["stores"] == 1
    # Second batch: seed-1 came from the session memo, only seed-2 ran.
    assert second["executed"] == 1
    assert second["task_wall_total_s"] == pytest.approx(
        sum(task["wall_s"] for task in second["tasks"])
    )


def test_manifest_explicit_path_without_cache(tmp_path):
    engine = SweepEngine(processes=1, manifest_path=tmp_path / "runs" / "m.jsonl")
    engine.run([_config(seed=1)])
    assert (tmp_path / "runs" / "m.jsonl").exists()


def test_no_manifest_without_cache_or_path(tmp_path):
    engine = SweepEngine(processes=1)
    assert engine.manifest_path is None
    engine.run([_config(seed=1)])  # must not write anywhere


# -- one batch of replicated grid points ---------------------------------------
#
# Through the single dispatch path, planning order and pooling may change
# cost, never results: pooled == serial, dedupe + cache hold, a failing task
# fails and retries alone.


def _batch_config(seed: int = 1, **changes) -> ScenarioConfig:
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
    configs = [_batch_config(seed=s) for s in (1, 2, 3)] + [
        _batch_config(seed=s, pause_time=5.0) for s in (1, 2)
    ]
    # One batch (planned costliest-first, pause 0 ahead of pause 5) returns
    # what one run per config returns, in submission order.
    one_by_one = [run_many([config], processes=1)[0] for config in configs]
    assert run_many(configs, processes=1) == one_by_one


def test_batched_pooled_results_equal_serial():
    """Pooled execution of a batch must match in-process results."""
    configs = [_batch_config(seed=s, duration=3.0) for s in (1, 2, 3, 4)]
    serial = run_many(configs, processes=1)
    pooled = run_many(configs, processes=2)
    assert pooled == serial


def test_batched_engine_still_dedupes_and_caches(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    engine = SweepEngine(processes=1, cache=cache)
    configs = [_batch_config(seed=1), _batch_config(seed=2), _batch_config(seed=1)]
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
    report = engine.run([_batch_config(seed=s) for s in (1, 2, 3)])
    assert report.results == [1, 2, 3]
    assert report.retries == 1 and calls["count"] == 2

    def always_bad(payload: dict):
        if payload["seed"] == 2:
            raise RuntimeError("permanent")
        return scenario_from_dict(payload).seed

    engine = SweepEngine(processes=1, task_fn=always_bad, retries=1)
    with pytest.raises(SweepExecutionError) as raised:
        engine.run([_batch_config(seed=s) for s in (1, 2, 3)])
    assert len(raised.value.failures) == 1


def test_run_many_accepts_mixed_grid_points():
    """Replications of two grid points submitted interleaved (the planner
    runs the 8-node pair first) come back in submission order."""
    configs = [
        _batch_config(seed=1),
        _batch_config(seed=1, num_nodes=8),
        _batch_config(seed=2, num_nodes=8),
        _batch_config(seed=2),
    ]
    assert run_many(configs) == [run_scenario(config) for config in configs]
