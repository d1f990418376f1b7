"""Service metrics: queue/jobs/cache instruments and their /metrics text.

Reuses the :mod:`repro.obs.instruments` primitives — the same Counter/
Gauge/Histogram/Registry that back the simulator's interval timeseries —
but fed with *serving* quantities (queue depth, jobs by state, cache
hits, per-job wall time).  The rendering is Prometheus-style text
exposition: one ``name value`` line per snapshot key, names sanitised to
``[a-z0-9_]`` with a ``repro_`` prefix.
"""

from __future__ import annotations

import re
from typing import Dict, Optional

from repro.devtools.lockdep import OrderedLock
from repro.obs.fleet import SPAN_KINDS
from repro.obs.instruments import Counter, Gauge, Histogram, MetricsRegistry

#: Wall-time buckets for one job, in seconds: sub-second cache hits up to
#: half-hour paper-scale sweeps.
JOB_WALL_BUCKETS = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0)

#: Buckets for one traced stage (span) of a job: sub-millisecond journal
#: fsyncs and cache probes up to multi-minute shard executions.
STAGE_WALL_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 1.0, 2.0, 5.0, 15.0, 60.0, 300.0)

_NAME_SANITISER = re.compile(r"[^a-zA-Z0-9_]")


def prometheus_name(key: str) -> str:
    return "repro_" + _NAME_SANITISER.sub("_", key)


class ServiceMetrics:
    """The service's instrument set over one :class:`MetricsRegistry`."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        # Gauges: current shape of the serving system.
        self.queue_depth: Gauge = reg.gauge("service.queue.depth")
        self.jobs_pending: Gauge = reg.gauge("service.jobs.pending")
        self.jobs_running: Gauge = reg.gauge("service.jobs.running")
        self.draining: Gauge = reg.gauge("service.draining")
        # Counters: lifetime totals.
        self.jobs_submitted: Counter = reg.counter("service.jobs.submitted")
        self.jobs_rejected: Counter = reg.counter("service.jobs.rejected")
        self.jobs_done: Counter = reg.counter("service.jobs.done")
        self.jobs_failed: Counter = reg.counter("service.jobs.failed")
        self.jobs_cancelled: Counter = reg.counter("service.jobs.cancelled")
        self.sims_executed: Counter = reg.counter("service.sims.executed")
        self.sims_cache_hits: Counter = reg.counter("service.sims.cache_hits")
        self.sims_deduped: Counter = reg.counter("service.sims.deduped")
        # Histogram: how long one job takes wall-clock, end to end.
        self.job_wall: Histogram = reg.histogram("service.job.wall_s", JOB_WALL_BUCKETS)
        # Fleet health (distributed mode): gauges for the current shape,
        # counters for lifetime lease/shard traffic.  Counters are synced
        # from the shard board's authoritative totals via :meth:`sync_fleet`
        # (delta-based, so the board never needs metric handles).
        self.fleet_workers: Gauge = reg.gauge("service.fleet.workers")
        self.fleet_leases_active: Gauge = reg.gauge("service.fleet.leases_active")
        self.fleet_shards_pending: Gauge = reg.gauge("service.fleet.shards_pending")
        self._fleet_counters: Dict[str, Counter] = {
            "leases_granted": reg.counter("service.fleet.leases_granted"),
            "leases_expired": reg.counter("service.fleet.leases_expired"),
            "shards_requeued": reg.counter("service.fleet.shards_requeued"),
            "shards_completed": reg.counter("service.fleet.shards_completed"),
            "heartbeats": reg.counter("service.fleet.heartbeats"),
        }
        self._fleet_last: Dict[str, int] = {}  # guarded-by: _lock
        # Rank 40: below the service/board locks (metrics are synced while
        # they are held), above the cache-stats locks.  Leaf in practice.
        self._lock = OrderedLock("service.metrics", rank=40, reentrant=False)
        # The remote cache tier, as served by this coordinator.
        self.cache_remote_hits: Counter = reg.counter("service.cache.remote_hits")
        self.cache_remote_misses: Counter = reg.counter("service.cache.remote_misses")
        self.cache_remote_stores: Counter = reg.counter("service.cache.remote_stores")
        # Per-stage latency: one histogram per fleet span kind, fed by the
        # tracer's on-finish hook (serialised: HTTP/worker threads race).
        self._stage_wall: Dict[str, Histogram] = {
            kind: reg.histogram(f"service.stage.{kind}.wall_s", STAGE_WALL_BUCKETS)
            for kind in sorted(SPAN_KINDS)
        }

    def set_job_gauges(self, queue_depth: int, pending: int, running: int) -> None:
        self.queue_depth.set(queue_depth)
        self.jobs_pending.set(pending)
        self.jobs_running.set(running)

    def sims_ran(self, count: int) -> None:
        """Simulations a delivered shard executed (serialised: shard
        completions race across HTTP handlers and in-process workers)."""
        with self._lock:
            self.sims_executed.inc(count)

    def remote_hit(self) -> None:
        """A remote-tier cache hit (serialised: HTTP threads race here)."""
        with self._lock:
            self.cache_remote_hits.inc()

    def remote_miss(self) -> None:
        with self._lock:
            self.cache_remote_misses.inc()

    def remote_store(self) -> None:
        with self._lock:
            self.cache_remote_stores.inc()

    def observe_stage(self, kind: str, wall_s: float) -> None:
        """Record one finished span's wall time (unknown kinds ignored)."""
        histogram = self._stage_wall.get(kind)
        if histogram is None:
            return
        with self._lock:
            histogram.observe(wall_s)

    def sync_fleet(self, counts: Dict[str, int]) -> None:
        """Fold a shard-board :meth:`~…ShardBoard.counts` snapshot in."""
        with self._lock:
            self.fleet_workers.set(counts.get("workers_connected", 0))
            self.fleet_leases_active.set(counts.get("leases_active", 0))
            self.fleet_shards_pending.set(counts.get("shards_pending", 0))
            for name, counter in self._fleet_counters.items():
                total = counts.get(name, 0)
                delta = total - self._fleet_last.get(name, 0)
                if delta > 0:
                    counter.inc(delta)
                    self._fleet_last[name] = total

    def snapshot(self) -> Dict[str, float]:
        return self.registry.snapshot()

    def render_prometheus(self) -> str:
        """Text exposition of the full snapshot, deterministically ordered."""
        lines = [
            f"{prometheus_name(key)} {value:g}"
            for key, value in sorted(self.snapshot().items())
        ]
        return "\n".join(lines) + "\n"
