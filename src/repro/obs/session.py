"""One-stop wiring of the observability layer over a built simulation.

``repro-run``'s observability flags and most scripted uses want the same
three attachments; :class:`Observability` bundles them:

    from repro.obs import Observability
    from repro.scenarios.builder import build_simulation

    handle = build_simulation(config)
    obs = Observability(metrics_interval=5.0, profile=True, flight_capacity=256)
    obs.attach(handle)
    result = obs.run(handle)            # dumps flight context on a fault
    obs.interval_metrics.export_jsonl("timeseries.jsonl")
    print(obs.profile_report().format())

Everything is opt-in: a default-constructed ``Observability`` attaches
nothing, and the simulation's metrics are bit-identical whichever subset
is enabled (observation never mutates protocol state or draws randomness).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.obs.flight import FlightRecorder
from repro.obs.interval import IntervalMetrics
from repro.obs.profiler import ProfileReport
from repro.sim.engine import Simulator

PathLike = Union[str, Path]


class Observability:
    """Bundle of interval metrics + engine profiling + flight recorder."""

    def __init__(
        self,
        metrics_interval: Optional[float] = None,
        profile: bool = False,
        flight_capacity: Optional[int] = None,
    ) -> None:
        self._metrics_interval = metrics_interval
        self._profile = profile
        self._flight_capacity = flight_capacity
        self.interval_metrics: Optional[IntervalMetrics] = None
        #: The simulator whose profiling :meth:`attach` switched on, if any.
        self.profiler: Optional[Simulator] = None
        self.flight: Optional[FlightRecorder] = None
        self._attached = False

    @property
    def enabled(self) -> bool:
        """True if any observation was requested."""
        return bool(
            self._metrics_interval or self._profile or self._flight_capacity
        )

    def attach(self, handle) -> "Observability":
        """Wire the requested observers into a ``SimulationHandle``."""
        if self._attached:
            raise RuntimeError("Observability is already attached")
        self._attached = True
        if self._metrics_interval:
            self.interval_metrics = IntervalMetrics(self._metrics_interval).attach(handle)
        if self._profile:
            self.profiler = handle.sim
            self.profiler.enable_profiling()
        if self._flight_capacity:
            self.flight = FlightRecorder(handle.tracer, capacity=self._flight_capacity)
        return self

    def run(self, handle, flight_dump_path: Optional[PathLike] = None):
        """``handle.run()`` with fault context: when the run raises and a
        flight recorder is attached, its ring is dumped to
        ``flight_dump_path`` (when given) before the exception propagates.
        The per-interval timeseries is finalized on success."""
        if self.flight is not None and flight_dump_path is not None:
            with self.flight.armed(flight_dump_path):
                result = handle.run()
        else:
            result = handle.run()
        self.finish()
        return result

    def finish(self) -> None:
        """Close the final partial metrics interval (idempotent)."""
        if self.interval_metrics is not None:
            self.interval_metrics.finish()

    def detach(self) -> None:
        """Remove every subscription/hook installed by :meth:`attach`."""
        if self.interval_metrics is not None:
            self.interval_metrics.detach()
        if self.flight is not None:
            self.flight.detach()
        if self.profiler is not None:
            self.profiler.disable_profiling()
            self.profiler = None
        self._attached = False

    def profile_report(self) -> Optional[ProfileReport]:
        """The engine profile, or None when profiling is not on."""
        if self.profiler is None:
            return None
        return ProfileReport(entries=self.profiler.profile_entries())
