"""Service metrics: queue/jobs/cache instruments and their /metrics text.

Built on the :mod:`repro.obs.instruments` primitives (Counter/Gauge/
Histogram/Registry), fed with *serving* quantities (queue depth, jobs by
state, cache hits, per-job wall time).  The rendering is Prometheus-style text
exposition: one ``name value`` line per snapshot key, names sanitised to
``[a-z0-9_]`` with a ``repro_`` prefix.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Optional, Tuple

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

#: What a snapshot samples: ``(jobs by state, the shard board's counts)``.
Sampler = Callable[[], Tuple[Dict[str, int], Dict[str, int]]]


def prometheus_name(key: str) -> str:
    return "repro_" + _NAME_SANITISER.sub("_", key)


class ServiceMetrics:
    """The service's instrument set over one :class:`MetricsRegistry`.

    Events are pushed as they happen (jobs, simulations, stage
    latencies); everything that is a *state* — jobs by
    state, the fleet's shape and the board's lifetime totals — is read
    from ``sample`` when :meth:`snapshot` is called, and at no other time.
    """

    def __init__(self, registry: Optional[MetricsRegistry], sample: Sampler) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._sample = sample
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
        # Fleet health: gauges for the current shape, counters for lifetime
        # lease/shard traffic — the shard board's own totals, by its names.
        self.fleet_workers: Gauge = reg.gauge("service.fleet.workers")
        self.fleet_leases_active: Gauge = reg.gauge("service.fleet.leases_active")
        self.fleet_shards_pending: Gauge = reg.gauge("service.fleet.shards_pending")
        self._fleet_totals: Dict[str, Counter] = {
            "leases_granted": reg.counter("service.fleet.leases_granted"),
            "leases_expired": reg.counter("service.fleet.leases_expired"),
            "shards_requeued": reg.counter("service.fleet.shards_requeued"),
            "shards_completed": reg.counter("service.fleet.shards_completed"),
            "heartbeats": reg.counter("service.fleet.heartbeats"),
        }
        # Rank 40: below the service/board locks (spans finish, and feed the
        # stage histograms, while they are held), above the cache-stats
        # locks.  Leaf in practice.
        self._lock = OrderedLock("service.metrics", rank=40, reentrant=False)
        # Per-stage latency: one histogram per fleet span kind, fed by the
        # tracer's on-finish hook (serialised: HTTP/worker threads race).
        self._stage_wall: Dict[str, Histogram] = {
            kind: reg.histogram(f"service.stage.{kind}.wall_s", STAGE_WALL_BUCKETS)
            for kind in sorted(SPAN_KINDS)
        }

    def sims_ran(self, count: int) -> None:
        """Simulations a delivered shard executed (serialised: shard
        completions race across HTTP handlers and in-process workers)."""
        with self._lock:
            self.sims_executed.inc(count)

    def observe_stage(self, kind: str, wall_s: float) -> None:
        """Record one finished span's wall time (unknown kinds ignored)."""
        histogram = self._stage_wall.get(kind)
        if histogram is None:
            return
        with self._lock:
            histogram.observe(wall_s)

    def snapshot(self) -> Dict[str, float]:
        """Every instrument, the sampled ones as of this call."""
        # Sample first, lock second: the sampler takes the service (10) and
        # board (20) locks, which rank above this one.
        jobs, fleet = self._sample()
        with self._lock:
            self.queue_depth.set(jobs["pending"])
            self.jobs_pending.set(jobs["pending"])
            self.jobs_running.set(jobs["running"])
            self.fleet_workers.set(fleet["workers_connected"])
            self.fleet_leases_active.set(fleet["leases_active"])
            self.fleet_shards_pending.set(fleet["shards_pending"])
            for name, counter in self._fleet_totals.items():
                # max(): two scrapes may land in either order.
                counter.inc(max(0.0, fleet[name] - counter.value))
            return self.registry.snapshot()

    def render_prometheus(self) -> str:
        """Text exposition of the full snapshot, deterministically ordered."""
        lines = [
            f"{prometheus_name(key)} {value:g}"
            for key, value in sorted(self.snapshot().items())
        ]
        return "\n".join(lines) + "\n"
