"""The observation layer: metrics, flight recording, fleet tracing and logs.

Everything here observes the simulation from outside — trace
subscriptions and a sampling timer — and never mutates protocol state or
draws randomness, so simulation results are bit-identical with
observability on or off (pinned by ``tests/obs/test_identical.py``).  The
engine holds no wall clock: ``repro-run --profile`` runs the simulation
under the stdlib ``cProfile``, the profiler the benchmark ledger uses.

* :class:`IntervalMetrics` — the run's metrics collector sampled every
  interval: per-interval deltas of every ``SimulationResult`` counter plus
  send-buffer depth and delivery ratio, exportable to JSONL/CSV.
* :class:`FlightRecorder` / :class:`FlightRecordingTaskFn` — bounded ring
  of recent trace records, dumped on demand or on a propagating
  exception; the task-fn form arms one per simulation for
  ``repro-worker``/``repro-serve`` post-mortems.
* :class:`FleetTracer` / :class:`Span` — fleet-wide distributed tracing
  of service jobs (spans cross process boundaries via the
  ``X-Repro-Trace`` header and merge on the coordinator).
* :class:`StructuredLogger` — JSONL event logging with bound fields,
  shared by ``repro-serve`` and ``repro-worker``.
* :mod:`repro.obs.tracecli` — the ``repro-trace`` inspection CLI over
  ``TraceFileWriter`` artifacts and fleet job traces (``repro-trace job``).
"""

from repro.obs.fleet import (
    SPAN_KINDS,
    TRACE_HEADER,
    FleetTracer,
    Span,
    critical_path,
    trace_breakdown,
    trace_coverage,
)
from repro.obs.flight import FlightRecorder, FlightRecordingTaskFn
from repro.obs.interval import IntervalMetrics
from repro.obs.slog import StructuredLogger
from repro.sim.tracefile import iter_records

__all__ = [
    "IntervalMetrics",
    "FlightRecorder",
    "FlightRecordingTaskFn",
    "FleetTracer",
    "Span",
    "SPAN_KINDS",
    "TRACE_HEADER",
    "StructuredLogger",
    "critical_path",
    "trace_breakdown",
    "trace_coverage",
    "iter_records",
]
