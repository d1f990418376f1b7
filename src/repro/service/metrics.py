"""Service metrics: the ``/metrics`` document and its text exposition.

One flat ``{name: value}`` snapshot of *serving* quantities.  Events (jobs,
simulations, job and stage wall times) are counted as they happen, in plain
ints and bucket counts; every state — jobs by state, draining, the fleet's
shape and the shard board's lifetime totals — is read from the sampler when
:meth:`ServiceMetrics.snapshot` runs, and at no other time.  The rendering
is Prometheus-style text exposition: one ``name value`` line per snapshot
key, names sanitised to ``[a-z0-9_]`` with a ``repro_`` prefix.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Callable, Dict, Tuple

from repro.devtools.lockdep import OrderedLock
from repro.obs.fleet import SPAN_KINDS

#: Wall-time buckets for one job, in seconds: sub-second cache hits up to
#: half-hour paper-scale sweeps.
JOB_WALL_BUCKETS = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0)

#: Buckets for one traced stage (span) of a job: sub-millisecond journal
#: fsyncs and cache probes up to multi-minute shard executions.
STAGE_WALL_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 1.0, 2.0, 5.0, 15.0, 60.0, 300.0)

#: Lifetime event counts, bumped with :meth:`ServiceMetrics.count`.
EVENTS = (
    "service.jobs.submitted",
    "service.jobs.rejected",
    "service.jobs.done",
    "service.jobs.failed",
    "service.jobs.cancelled",
    "service.sims.executed",
    "service.sims.cache_hits",
    "service.sims.deduped",
)

#: The shard board's lifetime totals, by its names.
FLEET_TOTALS = (
    "leases_granted", "leases_expired", "shards_requeued", "shards_completed", "heartbeats"
)

_NAME_SANITISER = re.compile(r"[^a-zA-Z0-9_]")

#: What a snapshot samples: ``(jobs by state, the shard board's counts,
#: draining)``.
Sampler = Callable[[], Tuple[Dict[str, int], Dict[str, int], bool]]


def prometheus_name(key: str) -> str:
    return "repro_" + _NAME_SANITISER.sub("_", key)


def prometheus_value(value: float) -> str:
    """``:g``, except that an integral value keeps every digit."""
    text = f"{value:g}"
    if float(text) != value and float(value).is_integer():
        return str(int(value))
    return text


class _Histogram:
    """Counts per inclusive upper bound, plus an implicit +inf bucket."""

    __slots__ = ("bounds", "counts", "sum")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0

    def flatten(self, name: str, out: Dict[str, float]) -> None:
        """``name.count``, ``name.sum`` and a cumulative ``name.le.<bound>``
        per finite bucket."""
        out[f"{name}.count"] = sum(self.counts)
        out[f"{name}.sum"] = self.sum
        cumulative = 0
        for bound, n in zip(self.bounds, self.counts):
            cumulative += n
            out[f"{name}.le.{bound:g}"] = cumulative


class ServiceMetrics:
    """Event counts and wall-time histograms, plus the sampled states."""

    def __init__(self, sample: Sampler) -> None:
        self._sample = sample
        # Rank 40: below the service/board locks (spans finish, and feed the
        # stage histograms, while they are held), above the cache-stats
        # locks.  Leaf in practice.
        self._lock = OrderedLock("service.metrics", rank=40, reentrant=False)
        self.events: Dict[str, int] = dict.fromkeys(EVENTS, 0)  # guarded-by: _lock
        self._histograms: Dict[str, _Histogram] = {  # guarded-by: _lock
            "service.job.wall_s": _Histogram(JOB_WALL_BUCKETS),
            **{
                f"service.stage.{kind}.wall_s": _Histogram(STAGE_WALL_BUCKETS)
                for kind in sorted(SPAN_KINDS)
            },
        }
        # The highest board total any scrape has read: two scrapes may
        # sample in one order and report in the other.
        self._fleet_totals: Dict[str, int] = dict.fromkeys(FLEET_TOTALS, 0)  # guarded-by: _lock

    def count(self, name: str, amount: int = 1) -> None:
        """Bump one event count (serialised: shard completions race across
        HTTP handlers and in-process workers)."""
        with self._lock:
            self.events[name] += amount

    def observe(self, name: str, wall_s: float) -> None:
        """Record one wall time in histogram ``name`` (unknown names ignored)."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is not None:
                histogram.counts[bisect_left(histogram.bounds, wall_s)] += 1
                histogram.sum += wall_s

    def observe_stage(self, kind: str, wall_s: float) -> None:
        """Record one finished span's wall time (unknown kinds ignored)."""
        self.observe(f"service.stage.{kind}.wall_s", wall_s)

    def snapshot(self) -> Dict[str, float]:
        """Every count and histogram, and the states as of this call."""
        # Sample first, lock second: the sampler takes the service (10) and
        # board (20) locks, which rank above this one.
        jobs, fleet, draining = self._sample()
        out: Dict[str, float] = {
            "service.queue.depth": jobs["pending"],
            "service.jobs.pending": jobs["pending"],
            "service.jobs.running": jobs["running"],
            "service.draining": int(draining),
            "service.fleet.workers": fleet["workers_connected"],
            "service.fleet.leases_active": fleet["leases_active"],
            "service.fleet.shards_pending": fleet["shards_pending"],
        }
        with self._lock:
            for name in FLEET_TOTALS:
                total = max(self._fleet_totals[name], fleet[name])
                out[f"service.fleet.{name}"] = self._fleet_totals[name] = total
            out.update(self.events)
            for name, histogram in self._histograms.items():
                histogram.flatten(name, out)
        return out

    def render_prometheus(self) -> str:
        """Text exposition of the full snapshot, deterministically ordered."""
        lines = [
            f"{prometheus_name(key)} {prometheus_value(value)}"
            for key, value in sorted(self.snapshot().items())
        ]
        return "\n".join(lines) + "\n"
