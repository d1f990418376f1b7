"""One repeat of one workload, in a fresh process.

Run as ``python -m benchmarks.ledger.child '<spec json>'`` by the harness;
prints one JSON record as its last stdout line.  The process does three
things in order — set-up (import ``repro``, build), the timed section, and
verification/roll-up — so ``setup_s`` and ``peak_rss_mb`` belong to this
workload alone and no import or allocator state leaks between repeats.

Every layer is driven through public entry points only.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from . import workloads
from .workloads import PROCESSES


def _cpu(who: int) -> float:
    """User+sys CPU seconds of this process, or of its reaped children."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """Largest resident set among this process and its reaped children."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


REF_ITERATIONS = 250_000

#: How long a fleet worker gets to exit after SIGTERM before it is killed.
WORKER_EXIT_S = 3.0


class _RefNode:
    __slots__ = ("table", "count")

    def __init__(self) -> None:
        self.table: Dict[int, float] = {}
        self.count = 0

    def touch(self, key: int, now: float) -> float:
        self.table[key] = now
        self.count += 1
        return self.table.get(key - 1, 0.0)


def reference_loop() -> float:
    """Seconds this host needs, right now, for ``REF_ITERATIONS`` of fixed
    pure-Python work shaped like the simulator's hot path: heap pushes and
    pops of tuples, method calls, dict reads and writes.

    This box's speed drifts by 30 % for minutes at a time (shared host), far
    more than any bound; the loop runs right before and right after every
    timed section, in the same process, so the drift can be divided out.
    It touches nothing of ``repro`` and runs with the collector off (a
    collection costs as much as the program has live objects), so no change
    to the program moves it; and it holds under 1 MiB, so it does not show
    in ``peak_rss_mb``.
    """
    nodes = [_RefNode() for _ in range(64)]
    heap: List[Any] = []
    now = 0.0
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(REF_ITERATIONS):
            heapq.heappush(heap, (now + (i * 7919 % 1000) * 1e-3, i))
            if len(heap) > 512:
                now, j = heapq.heappop(heap)
                nodes[j & 63].touch((j * 40503) & 63, now)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def digest(result: Any) -> str:
    """sha256 of the canonical JSON of a result's full payload."""
    from repro.analysis.cache import result_to_payload

    canonical = json.dumps(
        result_to_payload(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def frames(result: Any) -> int:
    return result.mac_control_tx + result.data_tx + result.routing_tx


def result_counters(results: List[Any]) -> Dict[str, float]:
    """Exact protocol counts summed over results, plus the paper's metrics."""
    total = lambda name: sum(getattr(r, name) for r in results)
    sent, received = total("data_sent"), total("data_received")
    return {
        "mac.control_tx": total("mac_control_tx"),
        "mac.data_tx": total("data_tx"),
        "mac.failures": total("mac_failures"),
        "mac.ifq_drops": total("ifq_drops"),
        "core.routing_tx": total("routing_tx"),
        "core.rreq_sent": total("rreq_sent"),
        "core.cache_hits": total("cache_hits"),
        "core.invalid_cache_hits": total("invalid_cache_hits"),
        "core.link_breaks": total("link_breaks"),
        "core.salvages": total("salvages"),
        "traffic.data_sent": sent,
        "traffic.data_received": received,
        "metrics.delivery_fraction": received / sent if sent else 0.0,
        "metrics.avg_delay_s": total("delay_sum") / received if received else 0.0,
        "metrics.normalized_overhead": (
            (total("routing_tx") + total("mac_control_tx")) / received
            if received
            else 0.0
        ),
    }


class SimRun:
    """``build_simulation`` (set-up) then ``SimulationHandle.run`` (timed)."""

    def __init__(self, spec: Dict[str, Any], workload: workloads.Workload) -> None:
        from repro.scenarios.builder import build_simulation

        self.spec = spec
        self.config = workload.configs(spec["scenario_seed"], spec["scale"])
        self.handle = build_simulation(self.config)
        self.result: Any = None
        self.profile: Any = None

    def run(self) -> None:
        if self.spec["traced"]:
            import cProfile

            self.profile = cProfile.Profile()
            self.result = self.profile.runcall(self.handle.run)
        else:
            self.result = self.handle.run()

    def finish(self, record: Dict[str, Any]) -> None:
        stats = self.handle.sim.stats()
        record["results"] = [self.result]
        record["sim_seconds"] = self.config.duration
        counters = record["counters"]
        counters.update(
            {
                "sim.events_executed": stats.executed,
                "sim.events_cancelled": stats.cancelled,
                "sim.events_skipped": stats.skipped,
                "sim.compactions": stats.compactions,
                "sim.cancel_ratio": (
                    stats.cancelled / stats.executed if stats.executed else 0.0
                ),
            }
        )
        if self.profile is None:
            record["timing"]["sim.events_per_s"] = stats.executed / record["wall_s"]
        else:
            import pstats

            import repro

            from .layers import rollup

            rolled = rollup(
                pstats.Stats(self.profile).stats, str(Path(repro.__file__).parent)
            )
            record["timing"].update(rolled["timings"])
            counters.update(rolled["counts"])
            record["edges"] = rolled["edges"]
            record["timing"].update(microbenches(self.spec))


class SweepCold:
    """The cold figure: an empty cache and a 2-process pool."""

    def __init__(self, spec: Dict[str, Any], workload: workloads.Workload) -> None:
        from repro.analysis.cache import ResultCache
        from repro.analysis.runner import SweepEngine

        self.configs = workload.configs(spec["scenario_seed"], spec["scale"])
        self.engine = SweepEngine(
            processes=PROCESSES, cache=ResultCache(Path(spec["workdir"]) / "cache")
        )
        self.report: Any = None

    def run(self) -> None:
        self.report = self.engine.run(self.configs)

    def finish(self, record: Dict[str, Any]) -> None:
        report = self.report
        record["results"] = report.results
        record["sim_seconds"] = sum(c.duration for c in self.configs)
        _analysis_counters(record, report)
        if report.executed != len(self.configs):
            record["errors"].append(
                f"cold sweep executed {report.executed} != {len(self.configs)}"
            )
        walls = list(report.task_walls.values())
        timing = record["timing"]
        timing["analysis.task_wall_total_s"] = sum(walls)
        timing["analysis.task_wall_max_s"] = max(walls, default=0.0)
        timing["analysis.dispatch_overhead_s"] = (
            record["wall_s"] - sum(walls) / PROCESSES
        )
        efficiency, reason = parallel_efficiency(
            sum(walls), record["wall_s"], PROCESSES, os.cpu_count() or 1
        )
        if efficiency is None:
            record["omitted"]["analysis.parallel_efficiency"] = reason
        else:
            timing["analysis.parallel_efficiency"] = efficiency


def parallel_efficiency(
    task_wall_total: float, wall_s: float, processes: int, host_cpus: int
) -> Tuple[Optional[float], Optional[str]]:
    """``(task_wall_total / (processes x wall), None)``, or ``(None, why not)``
    on a host that cannot run ``processes`` at once."""
    if host_cpus < processes:
        return None, (
            f"host_cpus {host_cpus} < processes {processes}: the pool cannot "
            "run in parallel here, so the ratio would mean nothing"
        )
    return task_wall_total / (processes * wall_s), None


class SweepWarm:
    """Set-up fills the cache; the timed section only reads it."""

    def __init__(self, spec: Dict[str, Any], workload: workloads.Workload) -> None:
        from repro.analysis.cache import ResultCache, scenario_hash
        from repro.scenarios.builder import run_scenario

        self.configs = workload.configs(spec["scenario_seed"], spec["scale"])
        self.cache_dir = Path(spec["workdir"]) / "cache"
        self.stored = run_scenario(self.configs[0])
        start = time.perf_counter()
        keys = [scenario_hash(config) for config in self.configs]
        hashed = time.perf_counter()
        cache = ResultCache(self.cache_dir)
        for key in keys:
            cache.put(key, self.stored)
        stored = time.perf_counter()
        self.setup_timing = {
            "analysis.hash_per_s": len(keys) / (hashed - start),
            "analysis.cache_put_per_s": len(keys) / (stored - hashed),
        }
        self.report: Any = None

    def run(self) -> None:
        from repro.analysis.cache import ResultCache
        from repro.analysis.runner import SweepEngine

        engine = SweepEngine(processes=PROCESSES, cache=ResultCache(self.cache_dir))
        self.report = engine.run(self.configs)

    def finish(self, record: Dict[str, Any]) -> None:
        report = self.report
        # One digest stands for all: every entry must read back as what
        # set-up stored (a wrong one is reported below, and fails the run).
        wrong = sum(1 for result in report.results if result != self.stored)
        record["results"] = [self.stored]
        record["attempted"] = len(self.configs)
        record["failed"] = wrong
        record["units"] = len(self.configs)
        record["sim_seconds"] = sum(c.duration for c in self.configs)
        _analysis_counters(record, report)
        if report.executed != 0:
            record["errors"].append(f"warm sweep executed {report.executed} != 0")
        record["timing"].update(self.setup_timing)
        record["timing"]["analysis.cache_hit_per_s"] = (
            report.cache_hits / record["wall_s"]
        )


def _analysis_counters(record: Dict[str, Any], report: Any) -> None:
    record["counters"].update(
        {
            "analysis.executed": report.executed,
            "analysis.cache_hits": report.cache_hits,
            "analysis.deduped": report.deduped,
            "analysis.retries": report.retries,
        }
    )


class ServiceRun:
    """Coordinator + HTTP server in this process, 2 ``repro-worker`` children.

    Ready means both workers have polled the coordinator.  The timed
    section is what a fleet user sees: ``client.submit`` until the results
    are back.  CPU is counted over the workers' whole life (spawn to
    reap), because a child's CPU only becomes visible when it is reaped.
    """

    def __init__(self, spec: Dict[str, Any], workload: workloads.Workload) -> None:
        from repro.obs.fleet import FleetTracer
        from repro.service.client import ServiceClient
        from repro.service.core import SimulationService
        from repro.service.http import ServiceHTTPServer

        self.traced = spec["traced"]
        self.warnings: List[str] = []
        self.configs = workload.configs(spec["scenario_seed"], spec["scale"])
        workdir = Path(spec["workdir"])
        self.service = SimulationService(
            distributed=True,
            cache_dir=str(workdir / "coordinator-cache"),
            journal_path=str(workdir / "journal.jsonl"),
            shard_size=2,
            tracer=FleetTracer(proc="coordinator", enabled=self.traced),
        )
        self.httpd = ServiceHTTPServer(("127.0.0.1", 0), self.service)
        # The default 0.5 s poll only delays shutdown() in reap().
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.service.start()
        self.thread.start()
        url = f"http://127.0.0.1:{self.httpd.port}"
        self.workers = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro.service.cli", "worker",
                    "--url", url,
                    "--worker-id", f"ledger-w{i}",
                    "--cache-dir", str(workdir / f"worker-{i}-cache"),
                    "--poll", "0.05",
                ]
                + ([] if self.traced else ["--no-trace"]),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            for i in range(PROCESSES)
        ]
        self.client = ServiceClient(url, client_id="ledger", timeout=60.0)
        try:
            deadline = time.monotonic() + 60.0
            while self.service.fleet_status()["workers_connected"] < PROCESSES:
                if time.monotonic() > deadline:
                    raise RuntimeError("workers did not connect within 60 s")
                time.sleep(0.01)
        except BaseException:
            self.reap()
            raise
        self.job_id: Optional[str] = None
        self.results: List[Any] = []
        self.fleet: Dict[str, Any] = {}
        self.trace: Optional[Dict[str, Any]] = None

    def run(self) -> None:
        self.job_id = self.client.submit(self.configs)
        # fetch() polls every 0.2 s; the same wait with a finer poll keeps
        # that quantum (a tenth of the job here) out of the measurement.
        status = self.client.wait(self.job_id, timeout=170.0, poll_interval=0.02)
        if status.get("state") != "done":
            raise RuntimeError(f"job ended {status.get('state')}: {status.get('error')}")
        self.results = self.client.results(self.job_id)

    def reap(self) -> None:
        try:
            if self.job_id is not None:
                self.fleet = self.client.leases()["fleet"]
                if self.traced:
                    self.trace = self.client.job_trace(self.job_id)
        finally:
            for proc in self.workers:
                proc.terminate()
            for i, proc in enumerate(self.workers):
                # An idle worker exits within one poll of SIGTERM; now and
                # then one does not exit at all, and that must not fail (or
                # stall) a repeat whose results are already in hand.
                try:
                    proc.wait(timeout=WORKER_EXIT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                    self.warnings.append(
                        f"ledger-w{i} ignored SIGTERM for {WORKER_EXIT_S:g} s and was killed"
                    )
            self.httpd.shutdown()
            self.httpd.server_close()
            self.service.drain(grace_s=10.0)

    def finish(self, record: Dict[str, Any]) -> None:
        record["results"] = self.results
        record["warnings"] += self.warnings
        record["sim_seconds"] = sum(c.duration for c in self.configs)
        record["counters"].update(
            {
                "service.shards_completed": self.fleet["shards_completed"],
                "service.leases_granted": self.fleet["leases_granted"],
                "service.leases_expired": self.fleet["leases_expired"],
            }
        )
        if len(self.results) != len(self.configs):
            record["errors"].append(
                f"service delivered {len(self.results)} of {len(self.configs)} results"
            )
        if self.trace is not None:
            record["timing"].update(_fleet_breakdown(record, self.trace["spans"]))


def _fleet_breakdown(record: Dict[str, Any], spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Busy seconds per span kind, from the job's merged fleet trace."""
    from repro.obs.fleet import trace_breakdown, validate_spans

    problems = validate_spans(spans)
    if problems:
        record["errors"].append(f"fleet trace invalid: {problems[:3]}")
    breakdown = trace_breakdown(spans)
    busy = lambda kind: breakdown["by_kind"].get(kind, {}).get("busy_s", 0.0)
    out = {
        f"service.{name}_s": busy(kind)
        for name, kind in (
            ("submit", "submit"),
            ("queue_wait", "queue.wait"),
            ("dispatch", "dispatch"),
            ("shard_lease", "shard.lease"),
            ("shard_execute", "shard.execute"),
            ("task_run", "task.run"),
            ("cache_lookup", "cache.lookup"),
            ("cache_remote", "cache.remote"),
            ("result_deliver", "result.deliver"),
            ("journal_fsync", "journal.fsync"),
        )
    }
    out["service.lease_overhead_s"] = busy("shard.lease") - busy("shard.execute")
    coverage = breakdown["coverage"]
    out["service.trace_coverage"] = coverage["coverage"]
    if coverage["coverage"] < 0.95:
        record["errors"].append(
            f"fleet trace covers {coverage['coverage']:.1%} of the job, want >= 95%"
        )
    worker_busy = [
        row["busy_s"]
        for proc, row in breakdown["by_proc"].items()
        if proc.startswith("ledger-w")
    ]
    out["service.worker_busy_share"] = (
        sum(worker_busy) / (PROCESSES * coverage["root_s"]) if coverage["root_s"] else 0.0
    )
    return out


def microbenches(spec: Dict[str, Any]) -> Dict[str, float]:
    """Direct-call layer microbenches, reported with the workload whose
    hot layer they isolate (ported from ``record_kernel_bench.py``)."""
    name = spec["workload"]
    if name == "mobile30_base":
        return {
            "sim.chained_events_per_s": statistics.median(
                _chained_events_per_s() for _ in range(3)
            ),
            "sim.cancel_churn_events_per_s": statistics.median(
                _cancel_churn_events_per_s() for _ in range(3)
            ),
        }
    if name == "paper100_all":
        return {"phy.refresh_allpairs100_s": _refresh_s(spec, 100, 2200.0, 600.0, "allpairs")}
    if name == "flood1000":
        return {"phy.refresh_grid1000_s": _refresh_s(spec, 1000, 6957.0, 1897.0, "grid")}
    return {}


def _chained_events_per_s(n: int = 200_000) -> float:
    from repro.sim.engine import Simulator

    sim = Simulator()
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < n:
            sim.schedule(0.001, tick)

    sim.schedule(0.0, tick)
    start = time.perf_counter()
    sim.run()
    return n / (time.perf_counter() - start)


def _cancel_churn_events_per_s(n: int = 50_000) -> float:
    from repro.sim.engine import Simulator

    sim = Simulator()
    count = [0]

    def tick() -> None:
        count[0] += 1
        timeout = sim.schedule(1000.0, lambda: None)
        sim.schedule(0.0005, timeout.cancel)
        if count[0] < n:
            sim.schedule(0.001, tick)

    sim.schedule(0.0, tick)
    start = time.perf_counter()
    sim.run(until=900.0)
    return 3 * n / (time.perf_counter() - start)


def _refresh_s(spec: Dict[str, Any], nodes: int, width: float, height: float, index: str) -> float:
    """Wall of 20 simulated seconds of per-quantum neighbour refresh with
    rx+cs queries for ~8 senders, on ``index``; the other backend must
    return the identical neighbour sets."""
    import numpy as np

    from repro.mobility.waypoint import RandomWaypointModel
    from repro.phy.neighbors import NeighborCache
    from repro.phy.propagation import DiskPropagation

    duration = 20.0 * spec["scale"]
    quantum = 0.05
    model = RandomWaypointModel(
        num_nodes=nodes,
        width=width,
        height=height,
        duration=duration,
        rng=np.random.default_rng(spec["scenario_seed"]),
        max_speed=20.0,
        pause_time=0.0,
    )
    propagation = DiskPropagation(rx_range=250.0, cs_range=550.0)
    senders = list(range(0, nodes, max(1, nodes // 8)))

    def fresh(which: str) -> Any:
        return NeighborCache(model, propagation, quantum=quantum, index=which)

    cache = fresh(index)
    start = time.perf_counter()
    for t in np.arange(0.0, duration, quantum):
        for node_id in senders:
            cache.rx_neighbors(node_id, float(t))
            cache.cs_neighbors(node_id, float(t))
    wall = time.perf_counter() - start

    allpairs, grid = fresh("allpairs"), fresh("grid")
    for t in (0.0, duration / 2.0, duration - quantum):
        for node_id in senders:
            if allpairs.rx_neighbors(node_id, t) != grid.rx_neighbors(
                node_id, t
            ) or allpairs.cs_neighbors(node_id, t) != grid.cs_neighbors(node_id, t):
                raise RuntimeError(f"neighbour index divergence at n={nodes}, t={t}")
    return wall


KINDS = {
    "sim": SimRun,
    "sweep_cold": SweepCold,
    "sweep_warm": SweepWarm,
    "service": ServiceRun,
}


def execute(spec: Dict[str, Any]) -> Dict[str, Any]:
    workload = workloads.WORKLOADS[spec["workload"]]
    run = KINDS[workload.kind](spec, workload)
    setup_s = time.time() - spec["spawned_at"]

    record: Dict[str, Any] = {
        "workload": workload.name,
        "scenario": spec["scenario"],
        "traced": spec["traced"],
        "setup_s": setup_s,
        "counters": {},
        "timing": {},
        "omitted": {},
        "errors": [],
        "warnings": [],
    }
    reap = getattr(run, "reap", None)
    try:
        ref_before = reference_loop()
        gc.collect()
        cpu_self = _cpu(resource.RUSAGE_SELF)
        cpu_children = _cpu(resource.RUSAGE_CHILDREN)
        wall_start = time.perf_counter()
        run.run()
        record["wall_s"] = time.perf_counter() - wall_start
        cpu_self = _cpu(resource.RUSAGE_SELF) - cpu_self
        ref_after = reference_loop()
    finally:
        if reap is not None:
            reap()
    # A child's CPU only shows once it is reaped: pool workers inside run(),
    # the fleet's workers (whole life, spawn to reap) in reap().
    record["cpu_s"] = cpu_self + _cpu(resource.RUSAGE_CHILDREN) - cpu_children
    record["ref_us"] = 1e6 * (ref_before + ref_after) / (2 * REF_ITERATIONS)
    record["peak_rss_mb"] = _peak_rss_mb()

    run.finish(record)
    results = record.pop("results")
    record["digests"] = [digest(result) for result in results]
    record.setdefault("attempted", len(results))
    record.setdefault("failed", 0)
    record.setdefault("units", sum(frames(result) for result in results))
    for name, value in result_counters(results).items():
        record["counters"].setdefault(name, value)
    return record


def main() -> None:
    print(json.dumps(execute(json.loads(sys.argv[1]))))


if __name__ == "__main__":
    main()
