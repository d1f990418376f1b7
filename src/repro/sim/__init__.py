"""Discrete-event simulation kernel.

This subpackage replaces the role ns-2 played for the original paper: a
deterministic, event-driven scheduler plus supporting utilities (timers,
seeded random-stream management, and structured tracing).  The scheduler
reads no wall clock; to time a run, profile it from outside (``repro-run
--profile`` runs it under ``cProfile``).
"""

from repro.sim.engine import Event, Simulator, SimulatorStats
from repro.sim.timers import PeriodicTimer, Timer
from repro.sim.rng import RandomStreams
from repro.sim.trace import NullTracer, TraceRecord, Tracer
from repro.sim.tracefile import TraceFileWriter

__all__ = [
    "Event",
    "Simulator",
    "SimulatorStats",
    "Timer",
    "PeriodicTimer",
    "RandomStreams",
    "Tracer",
    "NullTracer",
    "TraceRecord",
    "TraceFileWriter",
]
