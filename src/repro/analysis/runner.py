"""Sweep execution engine: parallel, incremental, load-balanced.

A figure is dozens of independent simulations; :class:`SweepEngine` fans
them out over worker processes and skips the ones it has already run.
Configurations travel as JSON dicts (see :mod:`repro.scenarios.io`) so
workers, forked or spawned, rebuild every run from its payload — no shared
state, perfectly reproducible — and every run is identified by its content hash
(:func:`repro.analysis.cache.scenario_hash`).

Execution pipeline of :meth:`SweepEngine.run`:

1. every config is keyed by its content hash;
2. keys already resolved (session memo, then on-disk cache) short-circuit;
3. duplicate keys within the batch collapse to one simulation, and only
   those keys get a ``(key, payload)`` task;
4. remaining tasks are ordered longest-job-first by :func:`plan_dispatch`
   (low-pause / high-load scenarios dominate wall time, so they must start
   early) and handed to :func:`execute_tasks`;
5. failures that survive its retries raise :class:`SweepExecutionError` —
   never silently dropped;
6. results are written back by original index, so aggregation sees them
   in the grid order :func:`repro.analysis.series.sweep` built.

:func:`execute_tasks` is the one executor: it runs ``(key, payload)``
tasks in the order given, pooled or in-process, retries failures in the
calling process, and yields each task's outcome.  The engine and the
service's shard worker (:mod:`repro.service.worker`) both iterate it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.analysis.cache import CacheStats, ResultCache, scenario_hash
from repro.analysis.series import (
    SweepPoint,
    sweep,
    compare_variants as _compare_variants,
)
from repro.analysis.stats import Aggregate
from repro.metrics.collector import SimulationResult
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.io import scenario_from_dict, scenario_to_dict

TaskFn = Callable[[dict], SimulationResult]
#: One attempt at one task: ``(key, result, error, wall_s)``.
Attempt = Tuple[str, Optional[SimulationResult], Optional[str], float]


def _run_payload(payload: dict) -> SimulationResult:
    """The unit of work: rebuild the scenario and simulate it."""
    from repro.scenarios.builder import run_scenario

    return run_scenario(scenario_from_dict(payload))


def _guarded(task_fn: TaskFn, task: Tuple[str, dict]) -> Attempt:
    """Run one task, returning errors as data so a bad payload cannot break
    the pool's result iterator.  The returned wall time is measured in the
    executing process (the worker, for pooled mode) so the parent's sweep
    telemetry attributes simulation cost, not pool latency."""
    key, payload = task
    # Operator-facing per-task accounting; never feeds simulation state.
    start = time.perf_counter()
    try:
        result = task_fn(payload)
        return key, result, None, time.perf_counter() - start
    except Exception as exc:  # surfaced to the parent, retried there
        wall = time.perf_counter() - start
        return key, None, f"{type(exc).__name__}: {exc}", wall


def _pool_context() -> multiprocessing.context.BaseContext:
    """The start method for a pool built now: ``fork`` on Linux when this
    process runs no other Python thread, so workers start as copies of a
    caller that has already imported the simulator; ``spawn`` otherwise,
    because forking while another thread may hold a lock can leave the
    child deadlocked on it (a service shard thread, a ``repro-worker``
    heartbeat, every non-Linux platform)."""
    if sys.platform == "linux" and threading.active_count() == 1:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def _default_signals() -> None:
    """Pool initializer: the SIGTERM / SIGINT handlers a spawned worker
    starts with, in place of any a forked one inherited — a caller's no-op
    SIGTERM handler would otherwise outlive ``terminate()``."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)


def estimate_cost(payload: dict) -> float:
    """Relative wall-time estimate used for longest-job-first ordering.

    Event volume scales with offered traffic (sessions x rate x duration)
    and with topology churn: per-quantum neighbour work is ~quadratic in
    node count, and continuous motion (pause 0) roughly doubles routing
    traffic versus pause = duration.  Only the *ordering* matters, so the
    constants are coarse.  ``payload`` is a ``scenario_to_dict`` payload,
    which carries every field read here: a stale key raises ``KeyError``.
    """
    nodes = float(payload["num_nodes"])
    duration = float(payload["duration"])
    load = float(payload["num_sessions"]) * float(payload["packet_rate"])
    pause = min(float(payload["pause_time"]), duration)
    mobility = 2.0 - (pause / duration if duration > 0 else 1.0)
    return duration * (0.01 * nodes * nodes + load) * mobility


def plan_dispatch(tasks: Iterable[Tuple[str, dict]]) -> List[Tuple[str, dict]]:
    """The dispatch plan: ``(key, payload)`` tasks longest-estimated-job
    first, equal estimates in submission order (the sort is stable).

    The one ordering every execution follows: :meth:`SweepEngine.run` hands
    it to :func:`execute_tasks` whole, and the service's shard board
    (:mod:`repro.service.leases`) cuts it into consecutive shards, each
    executed in that order by a shard worker.
    """
    return sorted(tasks, key=lambda task: estimate_cost(task[1]), reverse=True)


class Completion(NamedTuple):
    """One task's outcome: its result, or the error of its last attempt."""

    key: str
    result: Optional[SimulationResult]
    error: Optional[str]
    wall_s: float  # worker-measured wall of the last attempt
    attempts: int  # 1, plus the in-parent retries it took


def execute_tasks(
    tasks: Sequence[Tuple[str, dict]],
    task_fn: TaskFn = _run_payload,
    processes: Optional[int] = None,
    retries: int = 1,
) -> Iterator[Completion]:
    """Run ``(key, payload)`` tasks and yield one :class:`Completion` each.

    Tasks start in the order given — :func:`plan_dispatch` order, so a free
    worker always takes the longest job left — over ``processes`` workers
    (default: every core; ``1`` runs them in this process), and successes
    are yielded as they finish.  Every task that failed, whatever the cause
    (worker exception or crash), is then retried in this process up to
    ``retries`` times — deterministic and unaffected by pool state — and
    what still fails is yielded last, with its error.  Closing the
    generator early terminates the pool.
    """
    guarded = functools.partial(_guarded, task_fn)
    processes = max(1, min(processes or multiprocessing.cpu_count(), len(tasks)))
    failed: Dict[str, Completion] = {}
    with contextlib.closing(_drain(guarded, tasks, processes)) as drained:
        for completion in drained:
            done = Completion(*completion, attempts=1)
            if done.error is None:
                yield done
            else:
                failed[done.key] = done
    payloads = dict(tasks)
    for attempt in range(2, retries + 2):
        if not failed:
            break
        retry, failed = failed, {}
        for key in retry:
            done = Completion(*guarded((key, payloads[key])), attempts=attempt)
            if done.error is None:
                yield done
            else:
                failed[key] = done
    yield from failed.values()


def _drain(
    guarded: Callable[[Tuple[str, dict]], Attempt],
    tasks: Sequence[Tuple[str, dict]],
    processes: int,
) -> Iterator[Attempt]:
    """One pass over the tasks, yielding ``(key, result, error, wall_s)``
    as they finish: in this process, or overlapped in a process pool."""
    if processes == 1:
        yield from map(guarded, tasks)
        return
    # Imported here: the executor brings 2 MiB of multiprocessing machinery
    # that only a pooled sweep should pay for, not every importer of the planner.
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        max_workers=processes,
        mp_context=_pool_context(),
        initializer=_default_signals,
    )
    try:
        keys = {pool.submit(guarded, task): task[0] for task in tasks}
        for future in as_completed(keys):
            try:
                completion = future.result()
            except BrokenProcessPool as exc:
                # A worker died (killed, os._exit, a crash in native code).
                # The executor then fails every task still out; each is a
                # failure like any other, retried in the parent.
                completion = keys[future], None, f"{type(exc).__name__}: {exc}", 0.0
            yield completion
    finally:
        # Kill the workers, as Pool.__exit__ did: drained, they hold nothing
        # and need not tear an interpreter down; stopped mid-drain, they
        # must not finish what they hold.  The executor has no public call
        # for it before Python 3.14, so this goes through its process table.
        for process in list((pool._processes or {}).values()):
            process.terminate()
        # Joins them: no worker outlives the drain.
        pool.shutdown(wait=True, cancel_futures=True)


class SweepExecutionError(RuntimeError):
    """One or more sweep tasks failed every attempt."""

    def __init__(self, failures: Dict[str, str]):
        self.failures = dict(failures)
        detail = "; ".join(
            f"{key[:12]}…: {err}" for key, err in sorted(self.failures.items())
        )
        super().__init__(
            f"{len(self.failures)} sweep task(s) failed after retries: {detail}"
        )


class SweepInterrupted(RuntimeError):
    """A sweep was stopped (Ctrl-C / SIGINT) before every task finished.

    Raised by :meth:`SweepEngine.run` in place of the raw
    :class:`KeyboardInterrupt`: the worker pool has been terminated, every
    result settled so far has already been written to the cache, and a
    manifest line with ``"interrupted": true`` records the partial batch —
    so simply re-running the same sweep resumes from the cache.
    """

    def __init__(self, completed: int, abandoned: int, total: int):
        self.completed = completed
        self.abandoned = abandoned
        self.total = total
        super().__init__(
            f"sweep interrupted: {completed}/{total} config(s) resolved, "
            f"{abandoned} task(s) abandoned (completed work is cached; "
            "re-run to resume)"
        )


@dataclass
class RunReport:
    """Results plus the accounting for one :meth:`SweepEngine.run` batch."""

    results: List[SimulationResult]
    total: int
    executed: int
    cache_hits: int
    deduped: int
    retries: int
    wall_s: float
    cache_stats: Optional[CacheStats] = None
    #: Worker-measured simulation wall per scenario hash (executed tasks only).
    task_walls: Dict[str, float] = field(default_factory=dict)


class SweepEngine:
    """Executes batches of scenario configs with caching and parallelism.

    One engine should live for a whole figure (or a whole paper
    reproduction): its in-memory memo dedupes identical points *across*
    batches — e.g. the pause-0 runs that Figure 2, Table 3 and Figure 4
    share — while the optional :class:`ResultCache` makes the dedup
    survive process restarts.
    """

    def __init__(
        self,
        processes: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        retries: int = 1,
        task_fn: Optional[TaskFn] = None,
        manifest_path: Optional[os.PathLike] = None,
    ):
        self.processes = processes
        self.cache = cache
        self.retries = max(0, retries)
        self._task_fn = task_fn or _run_payload
        self._memo: Dict[str, SimulationResult] = {}
        # Run manifest: one JSON line of telemetry per run() batch.  Lives
        # next to the result cache by default so `cat cache/manifest.jsonl`
        # answers "what did my sweeps cost and what came from the cache".
        if manifest_path is not None:
            self.manifest_path = Path(manifest_path)
        elif cache is not None:
            self.manifest_path = cache.root / "manifest.jsonl"
        else:
            self.manifest_path = None
        self._batches = 0
        # Accumulated across run() calls, for end-of-session reporting.
        self.total_executed = 0
        self.total_cache_hits = 0
        self.total_deduped = 0
        self.total_retries = 0
        self.total_task_wall_s = 0.0

    @classmethod
    def create(
        cls,
        processes: Optional[int] = None,
        cache_dir: Optional[os.PathLike] = None,
        **kwargs,
    ) -> "SweepEngine":
        """Engine with an on-disk cache when ``cache_dir`` is given."""
        cache = ResultCache(cache_dir) if cache_dir is not None else None
        return cls(processes=processes, cache=cache, **kwargs)

    # -- execution ---------------------------------------------------------

    def run(self, configs: Sequence[ScenarioConfig]) -> RunReport:
        """Run every configuration, in order; see the module docstring for
        the pipeline."""
        # Wall-clock here is operator-facing accounting (RunReport.wall_s);
        # it never feeds simulation state, which runs purely on sim.now.
        start = time.perf_counter()
        keys = [scenario_hash(config) for config in configs]

        results: List[Optional[SimulationResult]] = [None] * len(configs)
        pending: Dict[str, List[int]] = {}
        cache_hits = 0
        for index, key in enumerate(keys):
            if key not in self._memo and self.cache is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    self._memo[key] = cached
                    cache_hits += 1
            if key in self._memo:
                results[index] = self._memo[key]
            else:
                pending.setdefault(key, []).append(index)
        # In-batch duplicates beyond cache hits: indices sharing a pending
        # key, plus memo hits from *previous* batches of this engine.
        resolved = len(configs) - sum(len(v) for v in pending.values())
        deduped = (resolved - cache_hits) + sum(
            len(v) - 1 for v in pending.values()
        )

        # Payload dicts only for the keys this batch must execute: a fully
        # warm batch builds none.
        tasks = plan_dispatch(
            (key, scenario_to_dict(configs[indices[0]]))
            for key, indices in pending.items()
        )

        executed = 0
        retries = 0
        failures: Dict[str, str] = {}
        task_walls: Dict[str, float] = {}
        completions = execute_tasks(tasks, self._task_fn, self.processes, self.retries)
        interrupted = False
        try:
            for done in completions:
                retries += done.attempts - 1
                if done.error is not None:
                    failures[done.key] = done.error
                    continue
                executed += 1
                task_walls[done.key] = done.wall_s
                self._memo[done.key] = done.result
                if self.cache is not None:
                    self.cache.put(done.key, done.result)
                for index in pending[done.key]:
                    results[index] = done.result
        except KeyboardInterrupt:
            interrupted = True
        finally:
            # Stops the workers if we stopped mid-drain; no-op when drained.
            completions.close()
        if failures and not interrupted:
            raise SweepExecutionError(failures)

        self.total_executed += executed
        self.total_cache_hits += cache_hits
        self.total_deduped += deduped
        self.total_retries += retries
        self.total_task_wall_s += sum(task_walls.values())
        self._batches += 1
        report = RunReport(
            # All settled, except on the interrupted path where the report
            # only feeds the manifest and is never returned.
            results=list(results),  # type: ignore[arg-type]
            total=len(configs),
            executed=executed,
            cache_hits=cache_hits,
            deduped=deduped,
            retries=retries,
            # Operator-facing batch accounting, not simulation state.
            wall_s=time.perf_counter() - start,
            cache_stats=self.cache.stats if self.cache is not None else None,
            task_walls=task_walls,
        )
        self._append_manifest(report, interrupted=interrupted)
        if interrupted:
            completed = sum(1 for r in results if r is not None)
            raise SweepInterrupted(
                completed=completed,
                abandoned=len(configs) - completed,
                total=len(configs),
            )
        return report

    def run_results(self, configs: Sequence[ScenarioConfig]) -> List[SimulationResult]:
        """Just the results, in config order (the :data:`RunnerFn` shape)."""
        return self.run(configs).results

    # -- figure-shaped conveniences ---------------------------------------

    def sweep(
        self,
        make_config: Callable[[float, int], ScenarioConfig],
        xs: Sequence[float],
        seeds: Sequence[int],
        label: Callable[[float], str] = lambda x: f"{x:g}",
    ) -> List[SweepPoint]:
        """Engine-backed :func:`repro.analysis.series.sweep`."""
        return sweep(make_config, xs, seeds, self.run_results, label=label)

    def compare_variants(
        self,
        variants: Dict[str, Callable[[int], ScenarioConfig]],
        seeds: Sequence[int],
    ) -> Dict[str, Aggregate]:
        """Engine-backed :func:`repro.analysis.series.compare_variants`."""
        return _compare_variants(variants, seeds, runner=self.run_results)

    def _append_manifest(self, report: RunReport, interrupted: bool = False) -> None:
        """Persist one telemetry line for a finished batch (best effort)."""
        if self.manifest_path is None:
            return
        walls = sorted(report.task_walls.items(), key=lambda i: (-i[1], i[0]))
        entry: Dict[str, object] = {
            "batch": self._batches,
            "total": report.total,
            "executed": report.executed,
            "cache_hits": report.cache_hits,
            "deduped": report.deduped,
            "retries": report.retries,
            "wall_s": round(report.wall_s, 6),
            "task_wall_total_s": round(sum(report.task_walls.values()), 6),
            "tasks": [
                {"key": key, "wall_s": round(wall, 6)} for key, wall in walls
            ],
        }
        if interrupted:
            entry["interrupted"] = True
        if report.cache_stats is not None:
            entry["cache"] = {
                "hits": report.cache_stats.hits,
                "misses": report.cache_stats.misses,
                "stores": report.cache_stats.stores,
            }
        try:
            self.manifest_path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.manifest_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        except OSError:
            # Telemetry must never fail a sweep (read-only cache dir, etc.).
            pass

    def session_stats(self) -> Dict[str, int]:
        """Accumulated executed/cached/deduped counts across run() calls."""
        return {
            "executed": self.total_executed,
            "cache_hits": self.total_cache_hits,
            "deduped": self.total_deduped,
            "retries": self.total_retries,
        }


# -- module-level convenience ----------------------------------------------


def run_many(
    configs: Sequence[ScenarioConfig],
    processes: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    retries: int = 1,
) -> List[SimulationResult]:
    """Run every configuration, in order, across worker processes.

    ``processes=1`` (or a single config) degrades to in-process execution
    through the *same* indexed pipeline — caching, dedup and result order
    are identical in both modes.
    """
    engine = SweepEngine(processes=processes, cache=cache, retries=retries)
    return engine.run_results(configs)

