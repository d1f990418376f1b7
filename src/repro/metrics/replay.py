"""Offline metric recomputation from trace files.

``TraceFileWriter`` captures a run; ``replay_metrics`` reads such a file
(or a flight-recorder dump that still holds the whole run) back and
recomputes the full :class:`SimulationResult` without re-simulating — the
workflow for archiving raw traces and deriving new metrics later.
"""

from __future__ import annotations

from repro.metrics.collector import MetricsCollector, SimulationResult
from repro.sim.trace import Tracer
from repro.sim.tracefile import PathLike, iter_records as iter_trace


def replay_metrics(
    path: PathLike,
    duration: float,
    payload_bytes: int = 512,
    offered_load_kbps: float | None = None,
) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from a trace file.

    The file must contain (at least) the event kinds the collector
    subscribes to; extra kinds are ignored.  ``duration`` cannot be
    inferred from the trace (a silent tail is invisible), so it is
    explicit.
    """
    tracer = Tracer()
    collector = MetricsCollector(tracer)
    for record in iter_trace(path):
        time = record.pop("t")
        kind = record.pop("kind")
        tracer.emit(time, kind, **record)
    return collector.finalize(
        duration=duration,
        offered_load_kbps=offered_load_kbps,
        payload_bytes=payload_bytes,
    )
