"""The job model: what one submission to the simulation service is.

A job is an ordered list of scenario payloads (the JSON dicts produced by
:func:`repro.scenarios.io.scenario_to_dict`) plus serving metadata —
client, priority, state, progress, and eventually results.  Jobs are
mutated only by the owning :class:`~repro.service.core.SimulationService`
under its lock; every externally visible change bumps ``version`` and
notifies ``changed`` so a waiter (:meth:`SimulationService.wait`) can sleep on it.

Timestamps here are operator-facing serving metadata (queue latency, job
wall time); they never feed simulation state, which remains a pure
function of each scenario payload.
"""
from __future__ import annotations

import enum
import threading
import time
import uuid
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.devtools.lockdep import OrderedLock
from repro.metrics.collector import SimulationResult
from repro.obs.fleet import Span


class JobState(str, enum.Enum):
    """Lifecycle of a job; see :data:`TERMINAL_STATES` for the sinks."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


TERMINAL_STATES = frozenset({JobState.DONE, JobState.FAILED, JobState.CANCELLED})


def new_job_id() -> str:
    """An opaque, unique job id (not content-derived: two submissions of
    the same scenarios are distinct jobs that merely share executions)."""
    return uuid.uuid4().hex[:16]


@dataclass
class JobProgress:
    """Resolution accounting for a job's scenario list."""

    total: int = 0  # scenarios in the job
    completed: int = 0  # scenarios resolved so far (any means)
    executed: int = 0  # simulations this job actually ran
    cached: int = 0  # served from the on-disk result cache
    deduped: int = 0  # shared another job's/batch's execution

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class Job:
    """One submission: scenarios in, results (in the same order) out."""

    id: str
    client: str
    priority: int
    scenarios: List[Dict[str, Any]]
    state: JobState = JobState.PENDING
    progress: JobProgress = field(default_factory=JobProgress)
    error: Optional[str] = None
    results: Optional[List[SimulationResult]] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: True when this job was reconstructed from a journal after a restart.
    recovered: bool = False
    #: Fleet trace id (see :mod:`repro.obs.fleet`); every span produced on
    #: this job's behalf — coordinator- or worker-side — carries it.
    trace_id: Optional[str] = None
    #: The trace's open root span and the stage the job is in — queue wait,
    #: then dispatch; they never overlap — while it is traced and unfinished.
    span: Optional[Span] = field(default=None, repr=False)
    stage_span: Optional[Span] = field(default=None, repr=False)
    #: Monotone change counter; bumped by :meth:`touch`.
    version: int = 0  # guarded-by: changed

    def __post_init__(self) -> None:
        self.progress.total = len(self.scenarios)
        # Rank 35: acquired while the service lock (10) is held (e.g. a
        # checkpoint touch inside drain); never held around anything else.
        # Every Job shares the name — jobs' conditions never nest.
        self.changed = threading.Condition(
            OrderedLock("service.job.changed", rank=35, reentrant=False)
        )

    # -- change notification ------------------------------------------------

    def touch(self) -> None:
        """Record a visible change and wake anyone waiting on ``changed``."""
        with self.changed:
            self.version += 1
            self.changed.notify_all()

    def wait_for_change(self, version: int, timeout: float) -> int:
        """Block until ``self.version`` advances past ``version`` (or the
        timeout lapses); returns the current version either way."""
        with self.changed:
            if self.version == version:
                self.changed.wait(timeout)
            return self.version

    # -- views --------------------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def wall_s(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def status_dict(self) -> Dict[str, Any]:
        """The job as the HTTP status resource (no scenario/result bodies)."""
        with self.changed:
            version = self.version
        return {
            "id": self.id,
            "client": self.client,
            "priority": self.priority,
            "state": self.state.value,
            "scenarios": len(self.scenarios),
            "progress": self.progress.as_dict(),
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_s": self.wall_s(),
            "recovered": self.recovered,
            "trace_id": self.trace_id,
            "version": version,
        }
