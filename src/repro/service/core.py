"""The simulation service: a job-serving layer over :class:`SweepEngine`.

``SimulationService`` turns one-shot sweep execution into a long-running
serving system with one execution path:

* **Admission control** — submissions are validated (every payload must
  rebuild into a :class:`ScenarioConfig`) and bounded (queue depth,
  per-client in-flight limits) *at the door*; accepted jobs are never
  dropped.
* **One coordinator** — a dispatcher thread moves admitted jobs, in
  priority order, onto the shard board (:mod:`repro.service.leases`),
  which resolves what the shared content-addressed cache already knows
  and packs the rest into shards; workers claim a shard, heartbeat its
  lease while a :class:`SweepEngine` executes it, and deliver the results;
  a janitor thread expires silent leases and requeues their shards, so a
  dead worker never loses work.
* **Who claims** is the only thing ``distributed`` decides.  ``False``
  (the default) starts ``workers`` in-process threads, each running the
  same :class:`~repro.service.worker.ShardWorker` loop as ``repro-worker``
  over direct calls, with no cache of their own: the board reads and
  writes the service's cache once per key.  ``True`` starts none:
  remote ``repro-worker`` processes claim over HTTP (``/v1/leases*``)
  and deliver each shard's results inside ``complete``, their one way home.
* **In-flight dedup** — concurrent jobs that share a scenario coalesce on
  the board: the first job's shard owns the ``scenario_hash``, later jobs
  wait for it and receive the same result.  Combined with the cache this
  gives exactly-once execution per scenario content.
* **Crash recovery** — every transition is journaled
  (:mod:`repro.service.journal`); a restarted service re-enqueues
  everything that was pending or running when the last one died.
* **Graceful drain** — :meth:`drain` stops admission, lets running jobs
  finish within a grace period, checkpoints the ones that can't back to
  pending, and flushes the journal.

Execution stays deterministic: the service adds scheduling, not
semantics — a job's results are bit-identical to ``run_many`` over the
same scenario list (pinned by ``tests/service/``).
"""
from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.cache import ResultCache
from repro.analysis.runner import TaskFn
from repro.devtools.lockdep import OrderedLock
from repro.errors import ConfigurationError, ReproError
from repro.metrics.collector import SimulationResult
from repro.obs.fleet import FleetTracer, Span, new_trace_id
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.io import scenario_from_dict, scenario_to_dict
from repro.service.jobs import Job, JobState, new_job_id
from repro.service.journal import JobJournal, replay, replay_spans
from repro.service.client import ServiceError
from repro.service.leases import LeaseNotFoundError, ShardBoard
from repro.service.metrics import ServiceMetrics
from repro.service.queue import AdmissionError, AdmissionPolicy, JobQueue
from repro.service.worker import ShardWorker

__all__ = [
    "SimulationService",
    "AdmissionError",
    "JobNotFoundError",
    "JobNotReadyError",
    "JobNotCancellableError",
    "LeaseNotFoundError",
    "ServiceDrainingError",
]

ScenarioLike = Union[ScenarioConfig, Dict[str, Any]]


class JobNotFoundError(ReproError):
    """No job with that id (never existed, or deleted)."""


class JobNotReadyError(ReproError):
    """The job exists but has no results yet (or terminally failed)."""

    def __init__(self, job: Job) -> None:
        detail = f"job {job.id} is {job.state.value}"
        if job.error:
            detail += f": {job.error}"
        super().__init__(detail)
        self.state = job.state
        self.error = job.error


class JobNotCancellableError(ReproError):
    """Cancellation was requested for a job already being executed."""


class ServiceDrainingError(ReproError):
    """The service is draining and admits no new jobs."""


class _InProcessClient:
    """The lease verbs as direct calls: what ``http.py`` and
    :class:`ServiceClient` do between a remote worker and the same three
    service methods, minus the wire (a :class:`~…worker.LeaseClient`)."""

    def __init__(self, service: "SimulationService") -> None:
        self._service = service
        # A lease this process granted is never unknown to it, so delivery
        # has no error to translate.
        self.complete = service.complete_shard
        self.post_spans = service.ingest_spans

    def claim(self, worker: str) -> Optional[Dict[str, Any]]:
        """Like the HTTP claim, but an idle caller sleeps on the board's
        wake-up instead of polling: ``None`` only once the service stops
        handing out shards."""
        service = self._service
        while True:
            claim = service.claim_shard(worker)
            if claim is not None or not service._running():
                return claim
            service._board.wait_for(claimable=True, timeout=0.2)

    def lease_heartbeat(self, lease_id: str) -> Dict[str, Any]:
        try:
            return self._service.lease_heartbeat(lease_id)
        except LeaseNotFoundError as exc:
            raise ServiceError(str(exc), 404) from None  # as http.py answers


class SimulationService:
    """Long-running, journaled, deduplicating executor of simulation jobs."""

    def __init__(
        self,
        workers: int = 2,
        cache_dir: Optional[str] = None,
        journal_path: Optional[str] = None,
        max_queue_depth: Optional[int] = 64,
        max_inflight_per_client: Optional[int] = 8,
        processes: int = 1,
        retries: int = 1,
        task_fn: Optional[TaskFn] = None,
        distributed: bool = False,
        lease_ttl_s: float = 10.0,
        shard_size: int = 4,
        tracer: Optional[FleetTracer] = None,
    ) -> None:
        self.workers = max(1, workers)
        # Jobs by state, the board's counts and draining are sampled when read.
        self.metrics = ServiceMetrics(
            lambda: (self.counts(), self.fleet_status(), self.draining)
        )
        # Fleet tracing is strictly optional: ``tracer=None`` keeps every
        # span site to a single attribute check (the bench's "plain" mode),
        # and a disabled tracer adds only its own fast path.
        self.tracer = tracer
        if tracer is not None:
            tracer.set_on_finish(self._on_span_finish)
        self._policy = AdmissionPolicy(max_queue_depth, max_inflight_per_client)
        # Rank 10: the root of the lock hierarchy (docs/architecture.md);
        # held while pushing to the queue (30), journaling (60) and
        # notifying job conditions (35).  Reentrant: public methods call
        # locked helpers.
        self._lock = OrderedLock("service.jobs", rank=10)
        self._jobs: Dict[str, Job] = {}  # guarded-by: _lock
        self._queue = JobQueue()
        self._threads: List[threading.Thread] = []  # guarded-by: _lock
        self._draining = False  # guarded-by: _lock
        self._stopped = False  # guarded-by: _lock
        # Set with _draining: cuts the janitor's between-tick sleep short.
        self._drain_begun = threading.Event()
        # Tracing state: open spans live on what they time (Job, Shard,
        # Lease); this maps a trace to its job, for spans that arrive with
        # nothing but their trace id.
        self._trace_jobs: Dict[str, str] = {}  # guarded-by: _lock
        self.distributed = distributed
        self.lease_ttl_s = lease_ttl_s
        # The one cache tier: the shard board's resolution source and store.
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if cache_dir is not None else None
        )
        if distributed and self.cache is None:
            raise ConfigurationError(
                "distributed mode needs cache_dir: the result cache is how "
                "shard results reach waiting jobs and restarted coordinators"
            )

        self._journal: Optional[JobJournal] = None
        if journal_path is not None:
            replayed_traces: Dict[str, List[Dict[str, Any]]] = {}
            if tracer is not None:
                replayed_traces = replay_spans(journal_path)
            for job in replay(journal_path):
                self._jobs[job.id] = job
                if job.state is not JobState.PENDING:
                    continue
                # Recovered payloads are admitted as submit admits them; one
                # journaled under values since retired fails here instead.
                try:
                    job.scenarios = [self._admit_payload(s) for s in job.scenarios]
                except ConfigurationError as exc:
                    job.error, job.state = str(exc), JobState.FAILED
                    job.finished_at = time.time()
                    self.metrics.count("service.jobs.failed")
                    continue
                self._queue.push(job)
            if tracer is not None:
                with self._lock:
                    self._restore_traces_locked(replayed_traces)
            self._journal = JobJournal(journal_path)
            self._journal.tracer = tracer
            self._journal.compact(
                sorted(self._jobs.values(), key=lambda j: j.submitted_at),
                traces=replayed_traces,
            )

        self._board = ShardBoard(
            cache=self.cache,
            shard_size=shard_size,
            lease_ttl_s=lease_ttl_s,
            # Only a tracer that records: a disabled one costs the per-shard
            # paths no call, no lock and no span.
            tracer=tracer if tracer is not None and tracer.enabled else None,
        )
        # Who claims from the board: a distributed coordinator waits for
        # the remote fleet; otherwise ``workers`` threads of this process
        # run the same loop over direct calls.  They get no cache: the
        # board already looked each key up and stores what they deliver.
        self._local_workers: List[ShardWorker] = []
        if not distributed:
            client = _InProcessClient(self)
            self._local_workers = [
                ShardWorker(
                    client,
                    worker_id=f"local-{index}",
                    processes=processes,
                    retries=retries,
                    task_fn=task_fn,
                    cache=None,
                )
                for index in range(self.workers)
            ]

    def _restore_traces_locked(
        self, replayed: Dict[str, List[Dict[str, Any]]]
    ) -> None:
        """Reload journaled spans and re-root recovered jobs' traces.

        Pre-restart spans come back exactly as journaled (no metric
        replay — the earlier process already counted them).  Jobs going
        back to ``pending`` reuse their trace id but get a *new* root and
        queue span: the crashed coordinator's root was still open when it
        died and so was never journaled.
        """
        tracer = self.tracer
        assert tracer is not None
        for job_id, spans in replayed.items():
            job = self._jobs.get(job_id)
            if job is None or job.trace_id is None:
                continue
            tracer.add_spans(spans, record_metrics=False)
            self._trace_jobs[job.trace_id] = job_id
        if not tracer.enabled:
            return
        for job in self._jobs.values():
            if job.state is not JobState.PENDING:
                continue
            if job.trace_id is None:
                job.trace_id = new_trace_id()
            self._trace_jobs[job.trace_id] = job.id
            job.span = root = tracer.start(
                "job",
                job.trace_id,
                attrs={"job": job.id, "client": job.client, "recovered": True},
            )
            if root is not None:
                job.stage_span = tracer.start(
                    "queue.wait", job.trace_id, parent_id=root.span_id
                )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SimulationService":
        """Spawn dispatcher, janitor and the in-process workers, if any
        (idempotent)."""
        with self._lock:
            if self._threads or self._stopped:
                return self
            targets = [
                ("repro-service-dispatcher", self._dispatcher_loop),
                ("repro-service-janitor", self._janitor_loop),
            ]
            targets += [
                (f"repro-service-worker-{worker.worker_id}", worker.run)
                for worker in self._local_workers
            ]
            for name, target in targets:
                thread = threading.Thread(target=target, name=name, daemon=True)
                thread.start()
                self._threads.append(thread)
        return self

    def __enter__(self) -> "SimulationService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.drain(grace_s=5.0)

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def _running(self) -> bool:
        """Neither draining nor stopped — the loops' continue condition."""
        with self._lock:
            return not self._draining and not self._stopped

    def drain(self, grace_s: float = 30.0) -> Dict[str, int]:
        """Graceful shutdown: stop admitting, finish or checkpoint, flush.

        Running jobs get ``grace_s`` seconds to finish; any still running
        after that are *checkpointed* — journaled back to pending so a
        restarted service re-enqueues and completes them.  Returns counts
        of jobs finished/checkpointed/pending at the end of the drain.
        """
        with self._lock:
            if self._stopped:
                return {"finished": 0, "checkpointed": 0, "pending": 0}
            self._draining = True
            threads = list(self._threads)
        self._drain_begun.set()
        deadline = time.monotonic() + max(0.0, grace_s)
        if threads and self._local_workers:
            # The dispatcher feeds no new job from here on, so whatever is
            # still claimable belongs to a running job: let the workers
            # take it while the grace lasts, then have each finish the
            # shard in hand and exit.
            self._board.wait_for(
                claimable=False, timeout=max(0.0, deadline - time.monotonic())
            )
        for worker in self._local_workers:
            worker.stop()
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finished = checkpointed = pending = 0
        with self._lock:
            for job in self._jobs.values():
                if job.state is JobState.RUNNING:
                    # The worker is still mid-execution and about to be
                    # abandoned; hand the job back to pending on disk so a
                    # restart re-runs it (idempotent by determinism).
                    if self._journal is not None:
                        self._journal.record_checkpoint(job)
                    job.state = JobState.PENDING
                    checkpointed += 1
                    job.touch()
                elif job.state is JobState.PENDING:
                    pending += 1
                elif job.terminal:
                    finished += 1
            if self._journal is not None:
                self._journal.close()
            self._stopped = True
        return {
            "finished": finished,
            "checkpointed": checkpointed,
            "pending": pending,
        }

    # -- submission and queries ----------------------------------------------

    def submit(
        self,
        scenarios: Union[ScenarioLike, Sequence[ScenarioLike]],
        client: str = "default",
        priority: int = 0,
        trace_parent: Optional[Tuple[str, str]] = None,
    ) -> Job:
        """Admit a job for the given scenario(s); returns it ``pending``.

        Raises :class:`~repro.scenarios...ConfigurationError` on payloads
        that do not rebuild into a :class:`ScenarioConfig`,
        :class:`AdmissionError` when the queue is full or the client is
        over its in-flight limit, and :class:`ServiceDrainingError` once
        :meth:`drain` has begun.

        ``trace_parent`` is an adopted ``(trace_id, parent_span_id)``
        context (the ``X-Repro-Trace`` request header): the job joins the
        submitter's trace instead of opening a fresh one.
        """
        tracer = self.tracer
        submit_start = tracer.now() if tracer is not None else 0.0
        payloads = [self._admit_payload(s) for s in self._as_sequence(scenarios)]
        if not payloads:
            raise ConfigurationError("a job needs at least one scenario")
        with self._lock:
            if self._draining or self._stopped:
                raise ServiceDrainingError("service is draining; resubmit later")
            try:
                self._policy.admit(
                    queue_depth=self._count_state_locked(JobState.PENDING),
                    client_inflight=self._client_inflight_locked(client),
                    client=client,
                )
            except AdmissionError:
                self.metrics.count("service.jobs.rejected")
                raise
            job = Job(
                id=new_job_id(), client=client, priority=priority, scenarios=payloads
            )
            if tracer is not None and tracer.enabled:
                job.trace_id = (
                    trace_parent[0] if trace_parent is not None else new_trace_id()
                )
                self._trace_jobs[job.trace_id] = job.id
                root = tracer.start(
                    "job",
                    job.trace_id,
                    parent_id=trace_parent[1] if trace_parent is not None else None,
                    attrs={
                        "job": job.id,
                        "client": client,
                        "scenarios": len(payloads),
                    },
                )
                if root is not None:
                    root.start = submit_start  # the root covers validation too
                    job.span = root
                    admit = tracer.start(
                        "submit", job.trace_id, parent_id=root.span_id
                    )
                    if admit is not None:
                        admit.start = submit_start
                    tracer.finish(admit, scenarios=len(payloads))
                    job.stage_span = tracer.start(
                        "queue.wait", job.trace_id, parent_id=root.span_id
                    )
            self._jobs[job.id] = job
            if self._journal is not None:
                self._journal.record_submit(job)
            self._queue.push(job)
            self.metrics.count("service.jobs.submitted")
        return job

    def get_job(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no such job: {job_id}")
        return job

    def jobs(self) -> List[Job]:
        """All known jobs, oldest submission first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.submitted_at)

    def job_results(self, job_id: str) -> List[SimulationResult]:
        job = self.get_job(job_id)
        if job.state is not JobState.DONE or job.results is None:
            raise JobNotReadyError(job)
        return list(job.results)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until the job reaches a terminal state (or timeout)."""
        job = self.get_job(job_id)
        deadline = None if timeout is None else time.monotonic() + timeout
        version = -1
        while not job.terminal:
            remaining = 0.5
            if deadline is not None:
                remaining = min(remaining, deadline - time.monotonic())
                if remaining <= 0:
                    break
            version = job.wait_for_change(version, timeout=remaining)
        if job.terminal:
            # The terminal state flip is visible before the rest of the
            # finishing work (trace spans, stage histograms, journal) runs
            # in the same locked region; passing through the lock once makes
            # wait() a happens-after barrier for all of it.
            with self._lock:
                pass
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a pending job, or delete a terminal job's record.

        Running jobs are not interruptible (executions are batched in the
        engine); cancelling one raises :class:`JobNotCancellableError`.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise JobNotFoundError(f"no such job: {job_id}")
            if job.state is JobState.PENDING:
                job.state = JobState.CANCELLED
                job.finished_at = time.time()
                if self._journal is not None:
                    self._journal.record_cancelled(job)
                self.metrics.count("service.jobs.cancelled")
                self._finish_trace_locked(job, "cancelled")
            elif job.state is JobState.RUNNING:
                raise JobNotCancellableError(
                    f"job {job_id} is already running; it cannot be interrupted"
                )
            else:
                del self._jobs[job_id]
                if self._journal is not None:
                    self._journal.record_deleted(job_id)
                tracer = self.tracer
                if tracer is not None and job.trace_id is not None:
                    tracer.discard(job.trace_id)
                    self._trace_jobs.pop(job.trace_id, None)
        job.touch()
        return job

    def counts(self) -> Dict[str, int]:
        with self._lock:
            counts = {state.value: 0 for state in JobState}
            for job in self._jobs.values():
                counts[job.state.value] += 1
            return counts

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _as_sequence(
        scenarios: Union[ScenarioLike, Sequence[ScenarioLike]],
    ) -> Sequence[ScenarioLike]:
        if isinstance(scenarios, (ScenarioConfig, dict)):
            return [scenarios]
        return list(scenarios)

    @staticmethod
    def _admit_payload(scenario: ScenarioLike) -> Dict[str, Any]:
        """The canonical payload of a submitted scenario.

        A dict is validated by rebuilding it, and the rebuild is what is
        admitted: a payload that spells a compat default out, or leaves a
        defaulted field out, keys the same cache entry as
        ``scenario_hash(config)`` and every worker's engine.  Whatever the
        rebuild failure mode (unknown key, wrong type, missing field), the
        submitter sees one error class.  ``"duration": 40`` and ``40.0``
        stay two keys, as they are for a local :class:`ScenarioConfig`.
        """
        if isinstance(scenario, ScenarioConfig):
            return scenario_to_dict(scenario)
        try:
            config = scenario_from_dict(scenario)
        except ConfigurationError:
            raise
        except Exception as exc:
            raise ConfigurationError(
                f"invalid scenario payload: {type(exc).__name__}: {exc}"
            ) from exc
        return scenario_to_dict(config)

    def _count_state_locked(self, state: JobState) -> int:
        return sum(1 for job in self._jobs.values() if job.state is state)

    def _client_inflight_locked(self, client: str) -> int:
        return sum(
            1
            for job in self._jobs.values()
            if job.client == client
            and job.state in (JobState.PENDING, JobState.RUNNING)
        )

    # -- fleet tracing ---------------------------------------------------------

    def _on_span_finish(self, span: Span) -> None:
        """Tracer hook: every finished span feeds a per-stage histogram."""
        self.metrics.observe_stage(span.kind, span.duration())

    def _trace_job_running_locked(self, job: Job) -> None:
        """Queue wait is over; the dispatch stage begins."""
        tracer = self.tracer
        if tracer is None or job.span is None:
            return
        tracer.finish(job.stage_span)
        job.stage_span = tracer.start(
            "dispatch",
            job.trace_id,
            parent_id=job.span.span_id,
            attrs={"job": job.id},
        )

    def _finish_trace_locked(self, job: Job, state: str) -> None:
        """Close the job's open coordinator spans and journal the trace."""
        tracer = self.tracer
        if tracer is None or job.trace_id is None:
            return
        tracer.finish(job.stage_span)
        tracer.finish(job.span, state=state)
        job.stage_span = job.span = None
        self._journal_trace(job.id, job.trace_id)

    def _journal_trace(self, job_id: str, trace_id: str) -> None:
        """Hand the trace's finished spans to the journal, which appends
        those it does not hold yet."""
        if self.tracer is not None and self._journal is not None:
            spans = self.tracer.trace_dicts(trace_id)
            self._journal.record_spans(
                job_id, trace_id, [blob for blob in spans if blob.get("end") is not None]
            )

    def ingest_spans(self, spans: List[Dict[str, Any]]) -> int:
        """Merge worker-produced spans (``POST /v1/spans``) and journal
        them for whichever jobs their traces belong to."""
        tracer = self.tracer
        if tracer is None:
            return 0
        accepted = tracer.add_spans(spans)
        trace_ids = {
            str(blob.get("trace_id")) for blob in spans if isinstance(blob, dict)
        }
        with self._lock:
            for trace_id in sorted(trace_ids & self._trace_jobs.keys()):
                self._journal_trace(self._trace_jobs[trace_id], trace_id)
        return accepted

    def job_trace(self, job_id: str) -> Dict[str, Any]:
        """The job's merged trace (``GET /v1/jobs/<id>/trace``)."""
        job = self.get_job(job_id)
        spans: List[Dict[str, Any]] = []
        if self.tracer is not None and job.trace_id is not None:
            spans = self.tracer.trace_dicts(job.trace_id)
        return {"id": job.id, "trace_id": job.trace_id, "spans": spans}

    # -- the coordinator: dispatcher, janitor, lease verbs --------------------

    def _dispatcher_loop(self) -> None:
        """Move admitted jobs from the priority queue onto the shard board.

        One job's worth of unclaimed shards at a time: while workers are
        busy the backlog stays in the priority queue, where queue-depth
        admission counts it and a higher priority overtakes it.
        """
        board = self._board
        while self._running():
            if not board.wait_for(claimable=False, timeout=0.2):
                continue
            job = self._queue.pop(timeout=0.2)
            if job is None:
                continue
            if not self._running():
                self._queue.push(job)
                break
            # One guarded unit per job: whatever raises — a full disk under
            # the journal included — fails that job, never the thread.
            try:
                with self._lock:
                    if job.state is not JobState.PENDING:
                        continue  # cancelled while queued
                    job.state = JobState.RUNNING
                    job.started_at = time.time()
                    if self._journal is not None:
                        self._journal.record_state(job)
                    self._trace_job_running_locked(job)
                job.touch()
                results = board.add_job(job)
                self.metrics.count("service.sims.cache_hits", job.progress.cached)
                self.metrics.count("service.sims.deduped", job.progress.deduped)
                if results is not None:
                    self._finish_done(job, results)
            except Exception as exc:
                try:
                    self._finish_failed(job, f"{type(exc).__name__}: {exc}")
                except Exception:  # the job is failed in memory; report, go on
                    import traceback  # not worth its 0.2 MiB to a healthy process

                    traceback.print_exc()

    def _janitor_loop(self) -> None:
        """Expire silent leases, requeueing their shards."""
        tick = min(1.0, max(0.05, self.lease_ttl_s / 4.0))
        while self._running():
            self._board.expire_leases(time.time())
            self._drain_begun.wait(tick)

    def _claims_open(self) -> bool:
        """A draining coordinator shows its fleet an idle queue and the
        workers back off; in-process workers keep claiming through the
        grace period so running jobs can finish (see :meth:`drain`)."""
        with self._lock:
            return not self._stopped and not (self._draining and self.distributed)

    def claim_shard(self, worker: str) -> Optional[Dict[str, Any]]:
        """A worker's pull: the next shard as a claim doc, or ``None``."""
        board = self._board
        if not self._claims_open():
            return None
        lease = board.claim(worker, time.time())
        if lease is None:
            return None
        doc = lease.claim_doc()
        span = lease.span
        if span is not None:
            # The claim doc carries the trace context; the worker's
            # shard.execute span parents onto this lease span.
            doc["trace"] = {"trace_id": span.trace_id, "parent_id": span.span_id}
        return doc

    def lease_heartbeat(self, lease_id: str) -> Dict[str, Any]:
        """Renew a lease; raises :class:`LeaseNotFoundError` if lapsed."""
        lease = self._board.heartbeat(lease_id, time.time())
        return {"id": lease.id, "ttl_s": lease.ttl_s, "deadline": lease.deadline}

    def complete_shard(
        self,
        lease_id: str,
        results: Dict[str, SimulationResult],
        failures: Optional[Dict[str, str]] = None,
        stats: Optional[Dict[str, Any]] = None,
        spans: Optional[List[Dict[str, Any]]] = None,
    ) -> Dict[str, Any]:
        """Deliver a shard; finishes every job the delivery settles.

        ``spans`` are worker-side trace spans shipped with the delivery;
        they merge into the coordinator's trace and are journaled so the
        merged trace survives a coordinator restart.
        """
        board = self._board
        executed = int((stats or {}).get("executed", 0))
        tracer = board.tracer
        arrived = tracer.now() if tracer is not None else 0.0
        outcome = board.complete(
            lease_id, results, failures, now=time.time(), executed=executed
        )
        if outcome.accepted and executed:
            self.metrics.count("service.sims.executed", executed)
        lease_span = outcome.lease_span
        if tracer is not None and spans:
            if lease_span is not None:
                tracer.add_spans(spans)  # journaled below, with the lease span
            else:
                self.ingest_spans(spans)  # late: by the job their trace names
        for job, job_results in outcome.finished:
            self._finish_done(job, job_results)
        for job, error in outcome.failed:
            self._finish_failed(job, error)
        if tracer is not None and lease_span is not None:
            deliver_span = tracer.start(
                "result.deliver",
                lease_span.trace_id,
                parent_id=lease_span.span_id,
                attrs={"lease": lease_id},
            )
            if deliver_span is not None:
                deliver_span.start = arrived  # the delivery began before the board
            tracer.finish(
                lease_span,
                outcome="accepted" if outcome.accepted else "duplicate",
                late=outcome.late,
            )
            tracer.finish(deliver_span, results=len(results))
            self._journal_trace(str(lease_span.attrs["job"]), lease_span.trace_id)
        return {
            "accepted": outcome.accepted,
            "late": outcome.late,
            "finished_jobs": [job.id for job, _ in outcome.finished],
            "failed_jobs": [job.id for job, _ in outcome.failed],
        }

    def leases(self) -> List[Dict[str, Any]]:
        """Active leases (the ``GET /v1/leases`` listing)."""
        return self._board.lease_docs(time.time())

    def fleet_status(self) -> Dict[str, int]:
        """Shard/lease/worker counts, as of now."""
        return self._board.counts(time.time())

    def _finish_done(self, job: Job, results: List[SimulationResult]) -> None:
        with self._lock:
            job.results = results
            job.state = JobState.DONE
            job.finished_at = time.time()
            job.progress.completed = job.progress.total
            if self._journal is not None:
                self._journal.record_done(job, trace=self._journal_ctx_locked(job))
            self.metrics.count("service.jobs.done")
            wall = job.wall_s()
            if wall is not None:
                self.metrics.observe("service.job.wall_s", wall)
            self._finish_trace_locked(job, "done")
        job.touch()

    def _finish_failed(self, job: Job, error: str) -> None:
        with self._lock:
            job.error = error
            job.state = JobState.FAILED
            job.finished_at = time.time()
            if self._journal is not None:
                self._journal.record_failed(
                    job, trace=self._journal_ctx_locked(job)
                )
            self.metrics.count("service.jobs.failed")
            self._finish_trace_locked(job, "failed")
        job.touch()

    def _journal_ctx_locked(self, job: Job) -> Optional[Tuple[str, Optional[str]]]:
        """Trace context for the journal's fsync span, if tracing."""
        if job.trace_id is None:
            return None
        return (job.trace_id, job.span.span_id if job.span is not None else None)

