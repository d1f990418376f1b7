"""Restartable timers layered on top of the event scheduler.

Protocol code (MAC timeouts, route-discovery backoff, cache sweeps) wants a
timer object it can start, cancel and restart without tracking raw
:class:`~repro.sim.engine.Event` handles.  These helpers provide that.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator


class Timer:
    """A one-shot, restartable timer.

    ``start`` on a running timer reschedules it (the previous deadline is
    cancelled), which is the semantics every protocol timeout here needs.
    """

    def __init__(self, sim: Simulator, fn: Callable[..., Any]):
        self._sim = sim
        self._fn = fn
        self._event: Optional[Event] = None

    @property
    def running(self) -> bool:
        """True if the timer is pending and will fire unless cancelled."""
        return self._event is not None and not self._event.cancelled

    @property
    def expiry(self) -> Optional[float]:
        """Absolute time the timer will fire, or None if not running."""
        if self.running:
            assert self._event is not None
            return self._event.time
        return None

    def start(self, delay: float, *args: Any) -> None:
        """(Re)arm the timer to fire ``delay`` seconds from now."""
        if self._event is not None:
            self._event.cancel()
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        sim = self._sim
        self._event = sim.schedule_at(sim.now + delay, self._fire, args)

    def cancel(self) -> None:
        """Disarm the timer if it is pending."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self, args: tuple) -> None:
        self._event = None
        self._fn(*args)


class PeriodicTimer:
    """A timer that re-arms itself every ``period`` seconds until stopped.

    Used, e.g., for the paper's cache-expiry sweep that runs every 0.5 s.
    """

    def __init__(self, sim: Simulator, period: float, fn: Callable[[], Any]):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._sim = sim
        self.period = period
        self._fn = fn
        self._event: Optional[Event] = None

    @property
    def running(self) -> bool:
        return self._event is not None and not self._event.cancelled

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Start ticking.  The first tick fires after ``initial_delay``
        (default: one full period)."""
        self.stop()
        delay = self.period if initial_delay is None else initial_delay
        self._event = self._sim.schedule(delay, self._tick)

    def stop(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        self._event = self._sim.schedule(self.period, self._tick)
        self._fn()
