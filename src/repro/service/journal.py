"""JSONL job journal: crash recovery for the simulation service.

Every job transition is appended as one JSON line, flushed immediately
(and fsynced at terminal transitions and on close), so a killed server
can reconstruct its world:

* ``submit``    — the full job (scenarios included; they are the work);
* ``state``     — pending → running transitions;
* ``done``      — terminal success, with the result payloads;
* ``failed`` / ``cancelled`` — terminal without results;
* ``checkpoint``— a running job handed back to pending at drain time;
* ``deleted``   — the record was explicitly removed (replay drops it).

plus ``spans`` — the finished trace spans of a job, each written once, as
they arrive.  Shards and leases are not journaled: a recovered job is
simply re-sharded, every shard already delivered resolves from the result
cache, and who ran what (and which lease expired) is in the ``shard.lease``
spans.  A journal from an earlier coordinator may also hold ``shards`` /
``lease`` / ``heartbeat`` / ``shard_done`` / ``lease_expired`` records;
every fold skips them and compaction drops them.

:func:`replay` folds a journal into the latest state per job.  Jobs whose
last state is ``pending`` or ``running`` are *recovered*: returned as
``pending`` with ``recovered=True`` so the service re-enqueues them — a
running job that died mid-flight is simply re-run (executions are
idempotent: results are a pure function of the scenario, and anything the
dead run already cached is reused).  A truncated final line (the crash
landed mid-write) is skipped, never fatal.

On startup the service :meth:`~JobJournal.compact`\\ s: the journal is
rewritten as one ``submit`` (+ terminal record) per surviving job, so it
grows with jobs served since the last restart, not with server lifetime.
"""
from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.analysis.cache import result_from_payload, result_to_payload
from repro.devtools.lockdep import OrderedLock, blocking
from repro.obs.fleet import FleetTracer
from repro.service.jobs import Job, JobProgress, JobState

PathLike = Union[str, Path]

#: Bump when journal record semantics change incompatibly.
JOURNAL_FORMAT_VERSION = 1


# One builder per record shape, used by the append path and by compaction.


def _submit_record(job: Job) -> Dict[str, Any]:
    blob: Dict[str, Any] = {
        "id": job.id,
        "client": job.client,
        "priority": job.priority,
        "scenarios": job.scenarios,
        "submitted_at": job.submitted_at,
    }
    if job.trace_id is not None:
        blob["trace_id"] = job.trace_id
    return {"event": "submit", "v": JOURNAL_FORMAT_VERSION, "t": time.time(), "job": blob}


def _spans_record(job_id: str, trace_id: str, spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "event": "spans",
        "t": time.time(),
        "id": job_id,
        "trace_id": trace_id,
        "spans": spans,
    }


def _done_record(job: Job) -> Dict[str, Any]:
    return {
        "event": "done",
        "t": time.time(),
        "id": job.id,
        "progress": job.progress.as_dict(),
        "wall_s": job.wall_s(),
        "results": [result_to_payload(r) for r in job.results or []],
    }


def _failed_record(job: Job) -> Dict[str, Any]:
    return {"event": "failed", "t": time.time(), "id": job.id, "error": job.error}


def _cancelled_record(job: Job) -> Dict[str, Any]:
    return {"event": "cancelled", "t": time.time(), "id": job.id}


_TERMINAL_RECORDS = {
    JobState.DONE: _done_record,
    JobState.FAILED: _failed_record,
    JobState.CANCELLED: _cancelled_record,
}


class JobJournal:
    """Append-only JSONL log of job transitions (thread-safe)."""

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Rank 60, io_lock: the bottom of the hierarchy.  Serialising
        # write+flush+fsync is this lock's entire job (WAL append order is
        # the crash-recovery contract), so blocking under it is by design
        # — and it must never be held around any other lock.
        self._lock = OrderedLock("journal.io", rank=60, io_lock=True, reentrant=False)
        self._handle = open(self.path, "a", encoding="utf-8")  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        # Span ids this file already holds, per job: a span is written once.
        self._span_ids: Dict[str, Set[str]] = {}  # guarded-by: _lock
        #: Optional fleet tracer; synced appends then produce
        #: ``journal.fsync`` spans (opened before and closed after the I/O
        #: lock region — journal.io is an I/O leaf, nothing may be
        #: acquired while it is held).  Set by the owning service.
        self.tracer: Optional[FleetTracer] = None

    # -- writing ------------------------------------------------------------

    def _append(
        self,
        record: Dict[str, Any],
        sync: bool = False,
        trace: Optional[Tuple[str, Optional[str]]] = None,
    ) -> None:
        line = json.dumps(record, sort_keys=True)
        tracer = self.tracer
        span = None
        if sync and tracer is not None and trace is not None:
            span = tracer.start(
                "journal.fsync",
                trace[0],
                parent_id=trace[1],
                attrs={"event": record.get("event")},
            )
        with self._lock:
            if not self._closed:  # drain already flushed; late writes are no-ops
                self._handle.write(line + "\n")
                self._handle.flush()
                if sync:
                    with blocking("journal.fsync"):
                        os.fsync(self._handle.fileno())
        if tracer is not None:
            tracer.finish(span)

    def record_submit(self, job: Job) -> None:
        self._append(_submit_record(job))

    def record_state(self, job: Job) -> None:
        self._append(
            {"event": "state", "t": time.time(), "id": job.id, "state": job.state.value}
        )

    def record_done(
        self, job: Job, trace: Optional[Tuple[str, Optional[str]]] = None
    ) -> None:
        self._append(_done_record(job), sync=True, trace=trace)

    def record_failed(
        self, job: Job, trace: Optional[Tuple[str, Optional[str]]] = None
    ) -> None:
        self._append(_failed_record(job), sync=True, trace=trace)

    def record_cancelled(self, job: Job) -> None:
        self._append(_cancelled_record(job), sync=True)

    def record_checkpoint(self, job: Job) -> None:
        """A running job handed back to ``pending`` (graceful drain)."""
        self._append(
            {"event": "checkpoint", "t": time.time(), "id": job.id}, sync=True
        )

    def record_spans(self, job_id: str, trace_id: str, spans: List[Dict[str, Any]]) -> None:
        """Persist those of ``job_id``'s finished trace spans the journal
        does not hold yet (crash durability).

        Appended without fsync: spans are diagnostics, and losing the tail
        of a trace in a crash is acceptable where losing results is not.
        """
        with self._lock:
            held = self._span_ids.setdefault(job_id, set())
            spans = [blob for blob in spans if blob["span_id"] not in held]
            held.update(blob["span_id"] for blob in spans)
        if spans:
            self._append(_spans_record(job_id, trace_id, spans))

    def record_deleted(self, job_id: str) -> None:
        self._append({"event": "deleted", "t": time.time(), "id": job_id}, sync=True)
        with self._lock:
            self._span_ids.pop(job_id, None)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._handle.flush()
            with blocking("journal.fsync"):
                os.fsync(self._handle.fileno())
            self._handle.close()
            self._closed = True

    # -- compaction ---------------------------------------------------------

    def compact(
        self,
        jobs: List[Job],
        traces: Optional[Dict[str, List[Dict[str, Any]]]] = None,
    ) -> None:
        """Rewrite the journal to one submit (+ terminal) record per job.

        ``traces`` (job id -> finished span dicts) carries each surviving
        job's journaled trace across the rewrite, so restarts do not
        orphan span history.  Atomic: written to a temp file and renamed
        over the old journal, so a crash mid-compaction leaves the
        previous journal intact.
        """
        tmp = self.path.with_suffix(f".tmp.{os.getpid()}")
        with self._lock:
            if self._closed:
                return
            self._handle.flush()
            self._span_ids.clear()
            with open(tmp, "w", encoding="utf-8") as out:
                for job in jobs:
                    records = [_submit_record(job)]
                    spans = (traces or {}).get(job.id)
                    if spans and job.trace_id is not None:
                        records.append(_spans_record(job.id, job.trace_id, spans))
                        self._span_ids[job.id] = {blob["span_id"] for blob in spans}
                    terminal = _TERMINAL_RECORDS.get(job.state)
                    if terminal is not None:
                        records.append(terminal(job))
                    for record in records:
                        out.write(json.dumps(record, sort_keys=True) + "\n")
                out.flush()
                with blocking("journal.fsync"):
                    os.fsync(out.fileno())
            self._handle.close()
            os.replace(tmp, self.path)
            self._handle = open(self.path, "a", encoding="utf-8")


def _records(path: PathLike) -> Iterator[Dict[str, Any]]:
    """The decodable records of a journal file, in append order.

    A missing file is an empty journal.  Blank lines and lines that do not
    decode — the torn tail of a crash mid-append — are skipped: every
    record is self-contained, so what follows a bad line still applies.
    """
    path = Path(path)
    if not path.exists():
        return
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        yield record


def replay_spans(path: PathLike) -> Dict[str, List[Dict[str, Any]]]:
    """Fold a journal's ``spans`` records into per-job span lists.

    Keys are job ids; values are the journaled span dicts in append
    order (duplicates by ``span_id`` dropped, first record wins, so a
    compacted prefix plus post-compaction appends fold cleanly).
    ``deleted`` records drop the job's trace along with the job.
    """
    traces: Dict[str, List[Dict[str, Any]]] = {}
    seen: Dict[str, Set[str]] = {}
    for record in _records(path):
        event = record.get("event")
        if event == "spans":
            job_id = record.get("id")
            spans = record.get("spans")
            if not job_id or not isinstance(spans, list):
                continue
            bucket = traces.setdefault(job_id, [])
            ids = seen.setdefault(job_id, set())
            for blob in spans:
                if not isinstance(blob, dict):
                    continue
                span_id = blob.get("span_id")
                if not isinstance(span_id, str) or span_id in ids:
                    continue
                ids.add(span_id)
                bucket.append(blob)
        elif event == "deleted":
            traces.pop(record.get("id", ""), None)
            seen.pop(record.get("id", ""), None)
    return traces


def replay(path: PathLike) -> List[Job]:
    """Reconstruct jobs from a journal, oldest submission first.

    Jobs last seen ``pending``/``running``/checkpointed come back as
    ``pending`` with ``recovered=True``; terminal jobs keep their state,
    results included.  Unreadable lines (a crash mid-append) and records
    for unknown job ids are skipped.
    """
    jobs: Dict[str, Job] = {}
    order: List[str] = []
    for record in _records(path):
        event = record.get("event")
        if event == "submit":
            blob = record.get("job") or {}
            job_id = blob.get("id")
            if not job_id or not isinstance(blob.get("scenarios"), list):
                continue
            job = Job(
                id=job_id,
                client=blob.get("client", "unknown"),
                priority=int(blob.get("priority", 0)),
                scenarios=blob["scenarios"],
                submitted_at=float(blob.get("submitted_at", record.get("t", 0.0))),
                trace_id=blob.get("trace_id"),
            )
            if job_id not in jobs:
                order.append(job_id)
            jobs[job_id] = job
            continue
        job = jobs.get(record.get("id", ""))
        if job is None:
            continue
        if event == "state":
            try:
                job.state = JobState(record.get("state"))
            except ValueError:
                pass
        elif event == "done":
            job.state = JobState.DONE
            try:
                job.results = [
                    result_from_payload(p) for p in record.get("results", [])
                ]
            except Exception:
                # Unloadable results (e.g. a result-record refactor): the
                # job is not trustworthy as DONE any more; re-run it.
                job.results = None
                job.state = JobState.PENDING
                continue
            progress = record.get("progress") or {}
            job.progress = JobProgress(
                **{k: int(v) for k, v in progress.items() if k in JobProgress().__dict__}
            )
        elif event == "failed":
            job.state = JobState.FAILED
            job.error = record.get("error")
        elif event == "cancelled":
            job.state = JobState.CANCELLED
        elif event == "checkpoint":
            job.state = JobState.PENDING
        elif event == "deleted":
            jobs.pop(job.id, None)
    recovered: List[Job] = []
    for job_id in order:
        job = jobs.get(job_id)
        if job is None:
            continue
        if job.state in (JobState.PENDING, JobState.RUNNING):
            job.state = JobState.PENDING
            job.recovered = True
        recovered.append(job)
    return recovered
