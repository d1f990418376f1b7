"""Priority job queue with admission control.

Admission is decided *before* a job exists: the service asks the policy
whether a new submission fits under the queue-depth bound and the
per-client in-flight limit, and a refusal carries a ``retry_after_s``
hint that the HTTP layer forwards as a 429 ``Retry-After`` header.
Accepted jobs are never dropped — the queue only sheds load at the door.

Ordering is ``(-priority, seq)``: higher priority first, FIFO within a
priority level (``seq`` is a monotone admission counter, so ordering is
deterministic and starvation-free within a level).
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import List, Optional, Tuple

from repro.devtools.lockdep import OrderedLock
from repro.errors import ReproError
from repro.service.jobs import Job, JobState


class AdmissionError(ReproError):
    """The service refused a submission; retry after ``retry_after_s``."""

    def __init__(self, reason: str, retry_after_s: float = 1.0) -> None:
        super().__init__(reason)
        self.reason = reason
        self.retry_after_s = retry_after_s


class AdmissionPolicy:
    """Bounded queue depth plus a per-client in-flight (pending+running)
    cap.  ``None``/``0`` disables the corresponding bound."""

    def __init__(
        self,
        max_queue_depth: Optional[int] = 64,
        max_inflight_per_client: Optional[int] = 8,
    ) -> None:
        self.max_queue_depth = max_queue_depth or None
        self.max_inflight_per_client = max_inflight_per_client or None

    def admit(self, queue_depth: int, client_inflight: int, client: str) -> None:
        """Raise :class:`AdmissionError` when the submission must be refused."""
        if self.max_queue_depth is not None and queue_depth >= self.max_queue_depth:
            raise AdmissionError(
                f"queue full ({queue_depth}/{self.max_queue_depth} pending jobs)",
                retry_after_s=2.0,
            )
        if (
            self.max_inflight_per_client is not None
            and client_inflight >= self.max_inflight_per_client
        ):
            raise AdmissionError(
                f"client {client!r} has {client_inflight} jobs in flight "
                f"(limit {self.max_inflight_per_client})",
                retry_after_s=1.0,
            )


class JobQueue:
    """A thread-safe priority queue of pending jobs.

    Cancellation is lazy: a cancelled job stays in the heap but is skipped
    at pop time (its state is no longer ``PENDING``), which keeps cancel
    O(1) without breaking the heap invariant.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Job]] = []  # guarded-by: _lock
        self._seq = itertools.count()
        # Rank 30: pushed to while the service lock (10) is held; holds
        # nothing below it.  Non-reentrant — push/pop never self-nest.
        self._lock = OrderedLock("service.queue", rank=30, reentrant=False)
        self._not_empty = threading.Condition(self._lock)

    def push(self, job: Job) -> None:
        with self._not_empty:
            heapq.heappush(self._heap, (-job.priority, next(self._seq), job))
            self._not_empty.notify()

    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """The highest-priority pending job, or ``None`` on timeout."""
        with self._not_empty:
            while True:
                job = self._pop_pending_locked()
                if job is not None:
                    return job
                if not self._not_empty.wait(timeout):
                    return self._pop_pending_locked()

    def _pop_pending_locked(self) -> Optional[Job]:
        while self._heap:
            _, _, job = heapq.heappop(self._heap)
            if job.state is JobState.PENDING:
                return job
        return None
