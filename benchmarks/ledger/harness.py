"""The parent side: spawn repeats, verify outputs, aggregate, print.

``BENCHMARK.json`` is the single list of metric names, units, directions
and bounds; this module reads it rather than repeating it.  One result set
(``run_set``) holds every sample, so ``compare`` and ``agree`` can pair
runs instead of comparing summaries.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .workloads import PROCESSES, WORKLOADS, scenario_index, scenario_seed

ROOT = Path(__file__).resolve().parents[2]
MANIFEST_PATH = ROOT / "BENCHMARK.json"
GOLDENS_PATH = Path(__file__).with_name("goldens.json")
#: Scratch for caches, journals and TMPDIR: inside the checkout, git-ignored,
#: removed after every run.
WORK_ROOT = ROOT / ".ledger_work"

SMOKE_SCALE = 0.25  # x the sizes in workloads.py ~ 0.05 x the issue's sizes
MIN_REPEATS = 5
#: ``run_seconds`` of BENCHMARK.json.
DEFAULT_SECONDS = 7.0
CHILD_TIMEOUT_S = 60.0


def load_manifest() -> Dict[str, Any]:
    return json.loads(MANIFEST_PATH.read_text())


def load_goldens() -> Dict[str, Dict[str, List[List[str]]]]:
    return json.loads(GOLDENS_PATH.read_text())


def lanes(name: str) -> int:
    """Repeats of ``name`` that run side by side in one round: as many as fit
    on the host's CPUs (at most ``PROCESSES`` busy workers in all).

    Twice the samples in the same time; both children of a pair go through
    set-up, reference loop and timed section together, so each is measured
    next to the same neighbour."""
    return max(1, min(PROCESSES, os.cpu_count() or 1) // WORKLOADS[name].busy)


def rounds_for(name: str, seconds: float) -> int:
    """Sizes are set so one round measures ~1.6 s; never fewer than five repeats."""
    return max(int(seconds / 1.6), -(-MIN_REPEATS // lanes(name)))


def summarize(values: List[float], scenarios: Optional[List[int]] = None) -> Dict[str, Any]:
    """Median + quartiles + sample count (quartiles need two samples), and
    the one ``value`` a run reports for the metric.

    Repeats of one run are different scenarios (see ``workloads.py``), so
    for a per-unit cost ``value`` is the mean over scenarios of each
    scenario's mean: it uses every scenario, where the median would report
    whichever one happened to fall in the middle.  Without ``scenarios``
    (set-up time, memory: the same work every repeat) it is the median.
    """
    q1, median, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    )
    value = median
    if scenarios is not None:
        by_scenario: Dict[int, List[float]] = {}
        for k, sample in zip(scenarios, values):
            by_scenario.setdefault(k, []).append(sample)
        value = statistics.mean(statistics.mean(v) for v in by_scenario.values())
    return {
        "value": value,
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": values,
    }


def host_facts() -> Dict[str, Any]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "loadavg": list(os.getloadavg()),
    }


def child_env() -> Dict[str, str]:
    """The environment of every process the ledger starts: the checkout's
    own ``src`` and ``benchmarks`` first on the path, whatever the caller had."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def spawn(
    workload: str, seed: int, k: int, traced: bool, scale: float, tag: str
) -> Dict[str, Any]:
    """Run one repeat in a fresh child; a crash comes back as a record too."""
    workdir = WORK_ROOT / tag
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    env["TMPDIR"] = str(workdir)
    spec = {
        "workload": workload,
        "seed": seed,
        "scenario": k,
        "scenario_seed": scenario_seed(seed, k),
        "scale": scale,
        "traced": traced,
        "workdir": str(workdir),
        "spawned_at": time.time(),
    }
    # Its own session, so that a child that hangs can be killed together
    # with the pool or fleet workers it started.
    child = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.ledger.child", json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
        if child.returncode == 0:
            return json.loads(stdout.strip().splitlines()[-1])
        crash = stderr.strip().splitlines()[-1:] or [f"exit {child.returncode}"]
    except subprocess.TimeoutExpired:
        crash = [f"no result within {CHILD_TIMEOUT_S:g} s"]
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": workload, "scenario": k, "traced": traced, "crashed": crash[0]}


class Verifier:
    """Counts attempted and failed simulations for one workload.

    A simulation fails if its child crashed, if it is missing, or if its
    result digest differs from the golden pinned for (workload, seed) —
    or, for an unpinned seed, from the first digest this run saw for the
    same scenario (another repeat, or the traced run).
    """

    def __init__(self, workload: str, seed: int, scale: float) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: Oddities outside the timed section; printed, never a failure.
        self.warnings: List[str] = []
        pinned = load_goldens().get(workload, {}).get(str(seed)) if scale == 1.0 else None
        self.pinned = pinned is not None
        self.expected: Dict[int, List[str]] = dict(enumerate(pinned or []))

    def check(self, record: Dict[str, Any]) -> bool:
        """Account for one child record; True if it can be used."""
        if "crashed" in record:
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"{record['workload']} child crashed: {record['crashed']}")
            return False
        k = record["scenario"]
        expected = self.expected.setdefault(k, record["digests"])
        mismatched = sum(a != b for a, b in zip(expected, record["digests"])) + abs(
            len(expected) - len(record["digests"])
        )
        if mismatched:
            self.errors.append(
                f"{record['workload']} scenario {k}"
                f"{' (traced)' if record['traced'] else ''}: {mismatched} result "
                f"digest(s) differ from the {'golden' if self.pinned else 'first run'}"
            )
        self.attempted += record["attempted"]
        self.failed += max(record["failed"], mismatched)
        if record["failed"]:
            self.errors.append(f"{record['workload']}: {record['failed']} operation(s) failed")
        self.errors.extend(record["errors"])
        self.warnings.extend(record.get("warnings", []))
        return True


def end_to_end(records: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Summaries of the end-to-end metrics over one workload's repeats.

    A cost is divided by the work done (``units``) and by what one
    iteration of the reference loop cost around that very timed section
    (``ref_us``), so that neither the scenario drawn nor the speed of the
    host at that moment sets the number.
    """
    scenarios = [r["scenario"] for r in records]
    refs = lambda key: [1e6 * r[key] / r["units"] / r["ref_us"] for r in records]
    return {
        "setup_s": summarize([r["setup_s"] for r in records]),
        "wall_refs_per_unit": summarize(refs("wall_s"), scenarios),
        "cpu_refs_per_unit": summarize(refs("cpu_s"), scenarios),
        "peak_rss_mb": summarize([r["peak_rss_mb"] for r in records]),
    }


def per_layer_values(
    base: Dict[str, Any],
    traced: Optional[Dict[str, Any]],
    sweep: Optional[Dict[str, Any]],
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, str]]:
    """``(exact counts, timings, omitted-with-reason)`` describing scenario 0.

    ``base`` is the untraced repeat, ``traced`` the same scenario under the
    tracer (cProfile for a simulation, FleetTracer for the fleet), and
    ``sweep`` the same grid through SweepEngine (service_fig2 only).
    """
    # Wall in reference iterations: the two sides of a ratio ran seconds apart.
    paced = lambda record: record["wall_s"] / record["ref_us"]
    counters = dict(base["counters"])
    timing = dict(base["timing"])
    omitted = dict(base["omitted"])
    timing["run.wall_s"] = base["wall_s"]
    timing["run.cpu_s"] = base["cpu_s"]
    timing["run.sim_rate"] = base["sim_seconds"] / base["wall_s"]
    timing["run.ref_us"] = base["ref_us"]
    counters["run.units"] = base["units"]
    if traced is not None:
        counters.update(traced["counters"])
        timing.update(traced["timing"])
        timing["trace.overhead_ratio"] = paced(traced) / paced(base)
    if sweep is not None:
        timing["service.vs_sweep_ratio"] = paced(base) / paced(sweep)
    return counters, timing, omitted


def run_set(
    names: List[str],
    seed: int,
    seconds: Optional[float],
    scale: float,
    untraced: bool = True,
    traced: bool = True,
    progress: Any = None,
) -> Dict[str, Any]:
    """Measure ``names`` for ``seconds`` each (None: one round), workloads
    interleaved per round so host drift hits all of them alike, then one
    traced run each."""
    note = progress or (lambda message: None)
    verifiers = {name: Verifier(name, seed, scale) for name in names}
    samples: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    # The traced run only needs scenario 0 untraced beside it.
    width = {name: lanes(name) if untraced else 1 for name in names}
    rounds = {
        name: rounds_for(name, seconds) if untraced and seconds is not None else 1
        for name in names
    }
    shutil.rmtree(WORK_ROOT, ignore_errors=True)
    try:
        with ThreadPoolExecutor(max_workers=PROCESSES) as pool:
            for r in range(max(rounds.values())):
                for name in names:
                    if r >= rounds[name]:
                        continue
                    note(f"{name} round {r + 1}")
                    repeats = rounds[name] * width[name]
                    records = pool.map(
                        lambda i, name=name, repeats=repeats: spawn(
                            name, seed, scenario_index(i, repeats), False, scale, f"{name}-{i}"
                        ),
                        range(r * width[name], (r + 1) * width[name]),
                    )
                    samples[name] += [rec for rec in records if verifiers[name].check(rec)]
        out: Dict[str, Any] = {}
        for name in names:
            verifier = verifiers[name]
            workload = WORKLOADS[name]
            entry: Dict[str, Any] = {"unit_of_work": workload.unit}
            records = samples[name]
            if untraced and records:
                entry["end_to_end"] = end_to_end(records)
                entry["ref_us"] = summarize([r["ref_us"] for r in records])
            if traced and records:
                base = records[0]
                traced_record = sweep_record = None
                if workload.kind in ("sim", "service"):
                    note(f"{name} traced")
                    traced_record = spawn(name, seed, 0, True, scale, f"{name}-traced")
                    if not verifier.check(traced_record):
                        traced_record = None
                if workload.kind == "service":
                    # The same grid through the sweep engine: the base of
                    # service.vs_sweep_ratio, and it must give these results.
                    note(f"{name} sweep_fig2 reference")
                    sweep_record = spawn("sweep_fig2", seed, 0, False, scale, f"{name}-sweep")
                    if not verifier.check(sweep_record):
                        sweep_record = None
                counters, timing, omitted = per_layer_values(base, traced_record, sweep_record)
                entry["per_layer"] = {"counts": counters, "timings": timing}
                entry["omitted"] = omitted
                if traced_record is not None and "edges" in traced_record:
                    entry["layer_edges"] = traced_record["edges"]
            entry["attempted"] = verifier.attempted
            entry["failed"] = verifier.failed
            entry["errors"] = verifier.errors
            entry["warnings"] = verifier.warnings
            entry["digests"] = {str(k): v for k, v in sorted(verifier.expected.items())}
            out[name] = entry
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)
    return {
        "schema": 1,
        "host": host_facts(),
        "protocol": {
            "seed": seed,
            "seconds": seconds,
            "repeats": {name: rounds[name] * width[name] for name in names},
            "scale": scale,
            "processes": PROCESSES,
            "statistic": "median, quartiles (statistics.quantiles n=4), sample count; "
            "value = mean over scenarios for per-unit costs, else the median",
            "isolation": "one fresh child process per repeat; gc.collect() before "
            "the timed section; workloads interleaved round-robin per round; "
            "single-process workloads run one repeat per CPU side by side",
        },
        "workloads": out,
    }


def flat_per_layer(entry: Dict[str, Any]) -> Dict[str, float]:
    layers = entry.get("per_layer", {})
    return {**layers.get("counts", {}), **layers.get("timings", {})}


def contract_line(
    result_set: Dict[str, Any], name: str, traced: bool, manifest: Dict[str, Any]
) -> Dict[str, Any]:
    """The driver's result object for one workload.

    Every metric the manifest lists is present; a per-layer metric of a
    layer this workload never enters reads 0.
    """
    entry = result_set["workloads"][name]
    if traced:
        values = flat_per_layer(entry)
        metrics = {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in manifest["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": entry["end_to_end"][m["name"]]["value"], "unit": m["unit"]}
            for m in manifest["end_to_end"]
            if m["name"] in entry.get("end_to_end", {})
        }
    return {
        "correct": entry["failed"] == 0 and not entry["errors"],
        "attempted": max(1, entry["attempted"]),
        "failed": entry["failed"],
        "metrics": metrics,
    }


def format_table(result_set: Dict[str, Any], manifest: Dict[str, Any]) -> Iterable[str]:
    """Every metric by name and unit, one line each."""
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    host = result_set["host"]
    yield (
        f"# host: {host['host_cpus']} cpus, python {host['python']}, numpy "
        f"{host['numpy']}, commit {host['commit'][:12]}, loadavg {host['loadavg'][0]:.2f}"
    )
    for name, entry in result_set["workloads"].items():
        yield f"## {name}: attempted {entry['attempted']}, failed {entry['failed']}"
        for metric, s in entry.get("end_to_end", {}).items():
            yield (
                f"{name} {metric} [{units.get(metric, '?')}] {s['value']:.6g} "
                f"(median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} n {s['n']})"
            )
        for metric, value in sorted(flat_per_layer(entry).items()):
            yield f"{name} {metric} [{units.get(metric, '?')}] {value:.6g}"
        for metric, reason in entry.get("omitted", {}).items():
            yield f"{name} {metric} omitted: {reason}"
        for error in entry["errors"]:
            yield f"{name} ERROR {error}"
        for warning in entry.get("warnings", []):
            yield f"{name} WARNING {warning}"
