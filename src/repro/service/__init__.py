"""Long-running simulation service: job queue + HTTP API over the sweep engine.

The service turns the batch-oriented :class:`~repro.analysis.runner.SweepEngine`
into a shared, long-lived endpoint: clients POST scenarios, workers execute
them against a shared content-addressed result cache (so repeated and
concurrent submissions of the same scenario cost one simulation), a JSONL
journal makes jobs survive restarts, and ``/metrics`` exposes serving
telemetry sampled at each scrape (:mod:`repro.service.metrics`).

Layers:

- :mod:`repro.service.core` — :class:`SimulationService`: queue, workers,
  admission control, in-flight dedup, journal, drain; in distributed mode
  a coordinator over :mod:`repro.service.leases`.
- :mod:`repro.service.leases` — :class:`ShardBoard`: shard packing,
  pull-based leases, expiry/requeue, fleet-wide dedup.
- :mod:`repro.service.http` — :class:`ServiceHTTPServer`: the JSON API.
- :mod:`repro.service.client` — :class:`ServiceClient`: typed stdlib client
  with bounded retry on transient connection errors.
- :mod:`repro.service.worker` — :class:`ShardWorker`: the remote executor.
- :mod:`repro.service.cli` — ``repro-serve``, ``repro-submit``; the worker
  CLI lives in :mod:`repro.service.worker` (``repro-worker``).
"""

from repro.service.client import (
    JobFailedError,
    QueueFullError,
    ServiceClient,
    ServiceError,
    TransientServiceError,
)
from repro.service.core import (
    JobNotCancellableError,
    JobNotFoundError,
    JobNotReadyError,
    ServiceDrainingError,
    SimulationService,
)
from repro.service.http import ServiceHTTPServer
from repro.service.jobs import Job, JobState
from repro.service.leases import LeaseNotFoundError, ShardBoard
from repro.service.queue import AdmissionError, AdmissionPolicy
from repro.service.worker import ShardWorker

__all__ = [
    "AdmissionError",
    "AdmissionPolicy",
    "Job",
    "JobFailedError",
    "JobNotCancellableError",
    "JobNotFoundError",
    "JobNotReadyError",
    "JobState",
    "LeaseNotFoundError",
    "QueueFullError",
    "ServiceClient",
    "ServiceDrainingError",
    "ServiceError",
    "ServiceHTTPServer",
    "ShardBoard",
    "ShardWorker",
    "SimulationService",
    "TransientServiceError",
]
