"""Scenario-grid shards and pull-based leases: the coordinator's work board.

The service splits each job's scenario grid into **shards** — dispatch
units a worker (a ``repro-worker`` process, or one of a non-distributed
service's in-process threads) claims, executes, and delivers back.
Packing follows the sweep engine's dispatch plan
(:func:`~repro.analysis.runner.plan_dispatch`, longest estimated job first)
and cuts it into consecutive shards of ``shard_size`` tasks, so the fleet
starts the expensive grid points as early as a local pool would.

Workers hold a shard via a **lease**: claimed with a TTL, renewed by
heartbeats, and expired by the coordinator's janitor when the worker goes
silent — the shard then requeues at the *front* of the queue (it has
waited longest).  A ``kill -9``'d worker therefore never loses work, and
a slow-but-alive worker's late delivery is still accepted while its shard
remains unresolved: results are pure functions of the scenario, so the
first delivery wins and duplicates are dropped.

In-flight dedup is the owner/waiter pair of tables: a key already owned
by some job's in-flight shard is not re-packed — later jobs register as
waiters (counted on their ``progress.deduped``) and are assembled when the
owning shard lands.

The board is deliberately clock-free (every method takes ``now``) and
never calls back into the service; callers finish the jobs that
:meth:`ShardBoard.complete`/:meth:`ShardBoard.add_job` return.  Given a
tracer it times what it moves: a shard's wait in the queue is a
``queue.wait`` span held by the :class:`Shard`, a worker's hold a
``shard.lease`` span held by the :class:`Lease`, each opened and closed
under the board lock at the transition it measures, so a trace has the
order the board had.

Blocking is opt-in and lives in one place, :meth:`ShardBoard.wait_for`:
in-process workers sleep on it until a shard is claimable, the dispatcher
until every packed shard has been claimed (jobs wait their turn in the
priority queue, not on the board).
"""

from __future__ import annotations

import threading
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.cache import ResultCache, scenario_hash
from repro.analysis.runner import plan_dispatch
from repro.devtools.lockdep import OrderedLock
from repro.errors import ReproError
from repro.metrics.collector import SimulationResult
from repro.obs.fleet import FleetTracer, Span
from repro.service.jobs import Job

__all__ = [
    "Lease",
    "LeaseNotFoundError",
    "Shard",
    "ShardBoard",
    "CompleteOutcome",
]

#: A worker counts as "connected" while its last contact (claim, heartbeat
#: or delivery) is at most this many lease TTLs old.
WORKER_SEEN_TTLS = 3.0


class LeaseNotFoundError(ReproError):
    """No lease with that id was ever granted by this coordinator."""


def new_shard_id() -> str:
    return "s-" + uuid.uuid4().hex[:12]


def new_lease_id() -> str:
    return "l-" + uuid.uuid4().hex[:12]


@dataclass
class Shard:
    """One dispatch unit: unique scenario keys of a single job."""

    id: str
    job_id: str
    keys: List[str]  # unique scenario hashes, engine dispatch order
    payloads: Dict[str, Dict[str, Any]]  # key -> scenario payload
    state: str = "pending"  # pending | leased | done
    requeues: int = 0
    queue_span: Optional[Span] = None  # open while pending, if traced


@dataclass
class Lease:
    """A worker's time-bounded hold on one shard."""

    id: str
    shard: Shard
    worker: str
    ttl_s: float
    deadline: float  # wall-clock instant the hold lapses unless renewed
    span: Optional[Span] = None  # ``shard.lease``, open while held, if traced

    def claim_doc(self) -> Dict[str, Any]:
        """The claim response body a worker executes from."""
        return {
            "id": self.id,
            "shard": self.shard.id,
            "job": self.shard.job_id,
            "ttl_s": self.ttl_s,
            "tasks": [
                {"key": key, "scenario": self.shard.payloads[key]}
                for key in self.shard.keys
            ],
        }


@dataclass
class _JobEntry:
    """Assembly state for one job whose keys are (partly) in flight."""

    job: Job
    keys: List[str]  # per-scenario keys, job order, duplicates kept
    remaining: Set[str]  # unique keys not yet resolved
    failed: Dict[str, str] = field(default_factory=dict)


@dataclass
class CompleteOutcome:
    """What one shard delivery changed."""

    accepted: bool  # results were recorded (first delivery of the shard)
    late: bool  # the delivering lease had already expired
    finished: List[Tuple[Job, List[SimulationResult]]] = field(default_factory=list)
    failed: List[Tuple[Job, str]] = field(default_factory=list)
    #: The delivering lease's span, still open: the caller's to close.
    lease_span: Optional[Span] = None


class ShardBoard:
    """Shard packing, lease bookkeeping and job assembly (thread-safe)."""

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        shard_size: int = 4,
        lease_ttl_s: float = 10.0,
        tracer: Optional[FleetTracer] = None,
    ) -> None:
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be > 0")
        #: Persistence behind the ``_results`` memo; ``None`` keeps delivered
        #: results in the memo only (a cache-less, non-distributed service).
        self.cache = cache
        self.shard_size = shard_size
        self.lease_ttl_s = lease_ttl_s
        self.tracer = tracer  # one that records, or None: no span is built
        # Rank 20: ranked below the service lock (10), which every service
        # method releases before calling in here (complete_shard included);
        # above the metrics (40) and tracer (45) locks a span finished under
        # it takes, and the cache locks it holds while resolving results.
        self._lock = OrderedLock("service.board", rank=20, reentrant=False)
        # Notified whenever the queue gains its first or loses its last
        # claimable shard; see wait_for().
        self._queue_changed = threading.Condition(self._lock)
        self._results: Dict[str, SimulationResult] = {}  # guarded-by: _lock
        self._shards: Dict[str, Shard] = {}  # guarded-by: _lock
        self._queue: Deque[str] = deque()  # guarded-by: _lock
        self._leases: Dict[str, Lease] = {}  # guarded-by: _lock
        self._lease_shard: Dict[str, str] = {}  # guarded-by: _lock
        self._entries: Dict[str, _JobEntry] = {}  # guarded-by: _lock
        self._waiters: Dict[str, List[str]] = {}  # guarded-by: _lock
        self._owner: Dict[str, str] = {}  # guarded-by: _lock
        self._workers_seen: Dict[str, float] = {}  # guarded-by: _lock
        # Lifetime counters, surfaced as fleet metrics.
        self.leases_granted = 0
        self.leases_expired = 0
        self.shards_requeued = 0
        self.shards_completed = 0
        self.heartbeats = 0

    def _start_span_locked(self, kind: str, shard: Shard, attrs: Dict[str, Any]) -> Optional[Span]:
        """Open a span under the root of ``shard``'s job, which stays on
        the board for as long as one of its shards is unsettled."""
        tracer = self.tracer
        if tracer is None:
            return None
        job = self._entries[shard.job_id].job
        root = job.span
        return tracer.start(
            kind, job.trace_id, parent_id=root.span_id if root is not None else None, attrs=attrs
        )

    def _finish_span_locked(self, span: Optional[Span], **attrs: Any) -> None:
        if span is not None and self.tracer is not None:
            self.tracer.finish(span, **attrs)

    def _enqueue_locked(self, shard: Shard, requeue: bool = False) -> None:
        """Make a pending shard claimable — a requeued one first in line —
        and start timing its wait."""
        if requeue:
            self._queue.appendleft(shard.id)
        else:
            self._queue.append(shard.id)
        self._queue_changed.notify_all()
        shard.queue_span = self._start_span_locked(
            "queue.wait", shard, {"shard": shard.id, "requeue": requeue}
        )

    # -- job intake ----------------------------------------------------------

    def add_job(self, job: Job) -> Optional[List[SimulationResult]]:
        """Admit a dispatched job: resolve what the memo/cache already
        know, register waiters on keys other shards own, pack the rest.

        Returns the full in-order result list when nothing was left to
        execute (the job is done without any remote work); ``None`` means
        the job is on the board and will surface from :meth:`complete`.
        """
        keys = [scenario_hash(payload) for payload in job.scenarios]
        payload_by_key = {
            key: payload for key, payload in zip(keys, job.scenarios)
        }
        with self._lock:
            entry = _JobEntry(job=job, keys=keys, remaining=set())
            cached = deduped = 0
            to_pack: List[str] = []
            for key in dict.fromkeys(keys):
                if key in self._results:
                    cached += 1
                    continue
                hit = self.cache.get(key) if self.cache is not None else None
                if hit is not None:
                    self._results[key] = hit
                    cached += 1
                    continue
                entry.remaining.add(key)
                self._waiters.setdefault(key, []).append(job.id)
                if key in self._owner:  # in flight for another job's shard
                    deduped += 1
                else:
                    to_pack.append(key)
            job.progress.cached = cached
            job.progress.deduped = deduped
            job.progress.completed = sum(
                1 for key in keys if key in self._results
            )
            if not entry.remaining:
                return [self._results[key] for key in keys]
            shards = self._pack(job.id, to_pack, payload_by_key)
            self._entries[job.id] = entry
            for shard in shards:
                self._shards[shard.id] = shard
                for key in shard.keys:
                    self._owner[key] = shard.id
                self._enqueue_locked(shard)
        job.touch()
        return None

    def _pack(
        self,
        job_id: str,
        keys: List[str],
        payload_by_key: Dict[str, Dict[str, Any]],
    ) -> List[Shard]:
        """Cut the engine's dispatch plan for the unresolved keys into
        consecutive shards of up to ``shard_size`` tasks."""
        tasks = plan_dispatch((key, payload_by_key[key]) for key in keys)
        return [
            self._make_shard(job_id, tasks[lo : lo + self.shard_size])
            for lo in range(0, len(tasks), self.shard_size)
        ]

    @staticmethod
    def _make_shard(
        job_id: str, tasks: List[Tuple[str, Dict[str, Any]]]
    ) -> Shard:
        return Shard(
            id=new_shard_id(),
            job_id=job_id,
            keys=[key for key, _ in tasks],
            payloads={key: payload for key, payload in tasks},
        )

    # -- the lease protocol ---------------------------------------------------

    def claim(self, worker: str, now: float) -> Optional[Lease]:
        """Grant the front pending shard to ``worker`` (None when idle)."""
        granted: Optional[Lease] = None
        with self._lock:
            self._workers_seen[worker] = now
            if self._queue:
                shard = self._shards[self._queue.popleft()]
                shard.state = "leased"
                granted = Lease(
                    id=new_lease_id(),
                    shard=shard,
                    worker=worker,
                    ttl_s=self.lease_ttl_s,
                    deadline=now + self.lease_ttl_s,
                )
                self._leases[granted.id] = granted
                self._lease_shard[granted.id] = shard.id
                self.leases_granted += 1
                if not self._queue:
                    self._queue_changed.notify_all()
                self._finish_span_locked(shard.queue_span)
                shard.queue_span = None
                granted.span = self._start_span_locked(
                    "shard.lease",
                    shard,
                    {
                        "lease": granted.id,
                        "shard": shard.id,
                        "job": shard.job_id,
                        "worker": worker,
                        "tasks": len(shard.keys),
                    },
                )
        return granted

    def wait_for(self, claimable: bool, timeout: float) -> bool:
        """Block until the queue holds a shard to claim (``claimable``) or
        holds none (``not claimable``); ``False`` when ``timeout`` lapsed."""
        with self._queue_changed:
            return self._queue_changed.wait_for(
                lambda: self._claimable_locked() == claimable, timeout
            )

    def _claimable_locked(self) -> bool:
        return bool(self._queue)

    def heartbeat(self, lease_id: str, now: float) -> Lease:
        """Renew an active lease's deadline; raises on unknown/expired."""
        with self._lock:
            lease = self._leases.get(lease_id)
            if lease is None:
                raise LeaseNotFoundError(f"no active lease: {lease_id}")
            lease.deadline = now + lease.ttl_s
            self._workers_seen[lease.worker] = now
            self.heartbeats += 1
            return lease

    def expire_leases(self, now: float) -> List[Lease]:
        """Requeue shards whose lease deadline has passed.

        Requeued shards go to the *front* of the queue: their job has
        already waited one full lease through a dead worker.
        """
        expired: List[Lease] = []
        with self._lock:
            overdue = [
                lease_id
                for lease_id, lease in self._leases.items()
                if lease.deadline < now
            ]
            for lease_id in overdue:
                lease = self._leases.pop(lease_id)
                shard = lease.shard
                if shard.state == "leased":
                    shard.state = "pending"
                    shard.requeues += 1
                    self._enqueue_locked(shard, requeue=True)
                    self.shards_requeued += 1
                self.leases_expired += 1
                self._finish_span_locked(lease.span, outcome="expired")
                lease.span = None
                expired.append(lease)
        return expired

    def complete(
        self,
        lease_id: str,
        results: Dict[str, SimulationResult],
        failures: Optional[Dict[str, str]] = None,
        now: float = 0.0,
        executed: int = 0,
    ) -> CompleteOutcome:
        """Deliver a shard's results and assemble every job they finish.

        The first delivery of a shard wins — even from a lease that
        already expired (a slow worker's work is never discarded); later
        duplicates are acknowledged but dropped (``accepted=False``).
        Keys the worker reported neither as results nor failures count as
        failures.  Raises :class:`LeaseNotFoundError` for lease ids this
        coordinator never granted.
        """
        failures = dict(failures or {})
        with self._lock:
            shard_id = self._lease_shard.get(lease_id)
            if shard_id is None:
                raise LeaseNotFoundError(f"unknown lease: {lease_id}")
            shard = self._shards[shard_id]
            lease = self._leases.pop(lease_id, None)
            late = lease is None
            lease_span: Optional[Span] = None
            if lease is not None:
                self._workers_seen[lease.worker] = now
                lease_span, lease.span = lease.span, None
            if shard.state == "done":
                return CompleteOutcome(accepted=False, late=late, lease_span=lease_span)
            if shard.state == "pending":
                # Requeued when its lease expired, delivered late after all.
                self._queue.remove(shard.id)
                if not self._queue:
                    self._queue_changed.notify_all()
                self._finish_span_locked(shard.queue_span)  # it waited for nothing
                shard.queue_span = None
            for key in shard.keys:
                if key not in results and key not in failures:
                    failures[key] = "shard delivery omitted this key"
            settled = {
                key: results[key] for key in shard.keys if key in results
            }
            shard.state = "done"
            shard.payloads = {}  # free: only keys matter once delivered
            self.shards_completed += 1
            for key in shard.keys:
                self._owner.pop(key, None)
            for key, result in settled.items():
                self._results[key] = result
                if self.cache is not None:
                    self.cache.put(key, result)
            owner_entry = self._entries.get(shard.job_id)
            if owner_entry is not None and executed > 0:
                # Worker-side execution, attributed to the shard's job.
                owner_entry.job.progress.executed += executed
            finished, failed = self._settle_keys_locked(
                settled.keys(),
                {key: failures[key] for key in shard.keys if key in failures},
            )
        return CompleteOutcome(
            accepted=True, late=late, finished=finished, failed=failed, lease_span=lease_span
        )

    def _settle_keys_locked(
        self, done_keys: Iterable[str], failed_keys: Dict[str, str]
    ) -> Tuple[List[Tuple[Job, List[SimulationResult]]], List[Tuple[Job, str]]]:
        """Resolve waiters; return the jobs now fully settled."""
        touched: Set[str] = set()
        for key in done_keys:
            for job_id in self._waiters.pop(key, []):
                entry = self._entries.get(job_id)
                if entry is None:
                    continue  # job already failed out of the board
                entry.remaining.discard(key)
                touched.add(job_id)
        for key, error in failed_keys.items():
            for job_id in self._waiters.pop(key, []):
                entry = self._entries.get(job_id)
                if entry is None:
                    continue
                entry.remaining.discard(key)
                entry.failed[key] = error
                touched.add(job_id)
        finished: List[Tuple[Job, List[SimulationResult]]] = []
        failed: List[Tuple[Job, str]] = []
        for job_id in sorted(touched):
            entry = self._entries[job_id]
            job = entry.job
            job.progress.completed = sum(
                1 for key in entry.keys if key in self._results
            )
            if entry.remaining:
                job.touch()  # partial progress is still visible progress
                continue
            del self._entries[job_id]
            if entry.failed:
                detail = "; ".join(
                    f"{key[:12]}…: {error}"
                    for key, error in sorted(entry.failed.items())
                )
                failed.append(
                    (job, f"{len(entry.failed)} shard task(s) failed: {detail}")
                )
            else:
                finished.append(
                    (job, [self._results[key] for key in entry.keys])
                )
        return finished, failed

    # -- introspection --------------------------------------------------------

    def worker_count(self, now: float) -> int:
        """Workers heard from within the last few lease TTLs."""
        horizon = WORKER_SEEN_TTLS * self.lease_ttl_s
        with self._lock:
            return sum(
                1
                for last_seen in self._workers_seen.values()
                if now - last_seen <= horizon
            )

    def counts(self, now: float) -> Dict[str, int]:
        """Fleet shape + lifetime totals, for metrics and listings."""
        workers = self.worker_count(now)
        with self._lock:
            pending = len(self._queue)  # the queue is exactly the pending shards
            return {
                "shards_pending": pending,
                "shards_leased": len(self._shards) - pending - self.shards_completed,
                "shards_done": self.shards_completed,
                "leases_active": len(self._leases),
                "workers_connected": workers,
                "leases_granted": self.leases_granted,
                "leases_expired": self.leases_expired,
                "shards_requeued": self.shards_requeued,
                "shards_completed": self.shards_completed,
                "heartbeats": self.heartbeats,
            }

    def lease_docs(self, now: float) -> List[Dict[str, Any]]:
        """Active leases as JSON-able docs (the ``GET /v1/leases`` body)."""
        with self._lock:
            return [
                {
                    "id": lease.id,
                    "shard": lease.shard.id,
                    "job": lease.shard.job_id,
                    "worker": lease.worker,
                    "tasks": len(lease.shard.keys),
                    "deadline": lease.deadline,
                    "expires_in_s": lease.deadline - now,
                }
                for lease in sorted(
                    self._leases.values(), key=lambda lease: lease.id
                )
            ]
