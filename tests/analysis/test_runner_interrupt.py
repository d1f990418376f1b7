"""Tests for graceful sweep interruption (Ctrl-C mid-batch)."""

import json
import multiprocessing
import signal
import time

import pytest

from repro.analysis.cache import ResultCache
from repro.analysis.runner import SweepEngine, SweepInterrupted, _run_payload
from repro.scenarios.config import ScenarioConfig

from tests.helpers import watchdog


def _config(seed=1):
    return ScenarioConfig(
        num_nodes=10,
        field_width=500.0,
        field_height=300.0,
        duration=12.0,
        num_sessions=3,
        pause_time=0.0,
        seed=seed,
    )


def _interrupt_on_nth(n):
    calls = []

    def task(payload):
        calls.append(payload["seed"])
        if len(calls) == n:
            raise KeyboardInterrupt
        return _run_payload(payload)

    return task, calls


def test_interrupt_mid_batch_raises_sweep_interrupted(tmp_path):
    task, calls = _interrupt_on_nth(2)
    engine = SweepEngine(processes=1, cache=ResultCache(tmp_path), task_fn=task)
    configs = [_config(seed=s) for s in (1, 2, 3)]
    with pytest.raises(SweepInterrupted) as excinfo:
        engine.run(configs)
    exc = excinfo.value
    assert exc.total == 3
    assert exc.completed == 1
    assert exc.abandoned == 2
    assert len(calls) == 2  # the third task never started
    assert "re-run to resume" in str(exc)


def test_interrupt_flushes_partial_manifest(tmp_path):
    task, _calls = _interrupt_on_nth(2)
    engine = SweepEngine(processes=1, cache=ResultCache(tmp_path), task_fn=task)
    with pytest.raises(SweepInterrupted):
        engine.run([_config(seed=s) for s in (1, 2, 3)])
    lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
    entry = json.loads(lines[-1])
    assert entry["interrupted"] is True
    assert entry["executed"] == 1
    assert entry["total"] == 3


def test_completed_work_survives_for_resume(tmp_path):
    task, _calls = _interrupt_on_nth(2)
    cache = ResultCache(tmp_path)
    configs = [_config(seed=s) for s in (1, 2, 3)]
    with pytest.raises(SweepInterrupted):
        SweepEngine(processes=1, cache=cache, task_fn=task).run(configs)

    resumed = SweepEngine(processes=1, cache=ResultCache(tmp_path))
    report = resumed.run(configs)
    assert report.cache_hits == 1  # the pre-interrupt execution was kept
    assert report.executed == 2
    manifest = [
        json.loads(line)
        for line in (tmp_path / "manifest.jsonl").read_text().splitlines()
    ]
    assert "interrupted" not in manifest[-1]  # the resume batch completed


def test_interrupt_during_retry_loop_is_graceful():
    attempts = []

    def task(payload):
        attempts.append(payload["seed"])
        if len(attempts) == 1:
            raise RuntimeError("transient")
        raise KeyboardInterrupt

    engine = SweepEngine(processes=1, retries=2, task_fn=task)
    with pytest.raises(SweepInterrupted):
        engine.run([_config(seed=1)])
    assert len(attempts) == 2  # first failed, retry interrupted


def _stall_or_interrupt_in_worker(payload):
    """Seed 1 runs; seed 2 blocks its pool worker for two minutes; seed 3,
    taken by seed 1's worker once it is free, raises ``KeyboardInterrupt``,
    which the parent re-raises from the task's future."""
    if multiprocessing.parent_process() is not None:
        if payload["seed"] == 2:
            time.sleep(120)
        if payload["seed"] == 3:
            raise KeyboardInterrupt
    return _run_payload(payload)


def _ignore_signal(signum, frame):
    pass


def test_interrupt_terminates_the_pool_workers():
    """Pooled mode: an interrupt kills the workers rather than waiting for
    the tasks they hold, and none of them outlives ``run`` — also when the
    caller has a no-op SIGTERM handler, which a forked worker inherits
    unless the pool resets it."""

    previous = signal.getsignal(signal.SIGTERM)
    for sigterm in (previous, _ignore_signal):
        engine = SweepEngine(processes=2, task_fn=_stall_or_interrupt_in_worker)
        signal.signal(signal.SIGTERM, sigterm)
        try:
            with watchdog(60), pytest.raises(SweepInterrupted) as excinfo:
                engine.run([_config(seed=s) for s in (1, 2, 3)])
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert excinfo.value.completed == 1, sigterm
        assert multiprocessing.active_children() == [], sigterm


def test_uninterrupted_sweep_unchanged(tmp_path):
    engine = SweepEngine(processes=1, cache=ResultCache(tmp_path))
    report = engine.run([_config(seed=1)])
    assert report.executed == 1
    entry = json.loads((tmp_path / "manifest.jsonl").read_text().splitlines()[-1])
    assert "interrupted" not in entry
