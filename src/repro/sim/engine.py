"""The discrete-event scheduler at the heart of the simulator.

The design is deliberately minimal: a binary heap of :class:`Event` objects
ordered by ``(time, sequence_number)``.  The sequence number makes event
ordering total and deterministic — two events scheduled for the same instant
fire in the order they were scheduled, which in turn makes whole simulations
reproducible for a given seed.

Cancellation is *lazy*: cancelled events stay in the heap but are skipped when
popped.  This keeps :meth:`Simulator.cancel` O(1), which matters because MAC
timeouts are cancelled far more often than they fire.  Lazy cancellation alone,
however, lets the heap fill with dead events (every successful CTS/ACK leaves
one behind), inflating every subsequent push/pop by the log of the garbage.
The simulator therefore *compacts* the heap — filters out cancelled events and
re-heapifies — whenever the cancelled fraction crosses a threshold.  Compaction
only removes events that would have been skipped anyway and preserves the
``(time, seq)`` order of the survivors, so the executed-event sequence (and
with it, determinism) is unchanged.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError


class Event:
    """A scheduled callback.

    Events compare by ``(time, seq)`` so the heap ordering is total and
    deterministic.  Use :meth:`cancel` to prevent a pending event from firing.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "owner")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple[Any, ...],
        owner: "Optional[Simulator]" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.owner = owner

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} seq={self.seq} fn={name}{state}>"


@dataclass(frozen=True)
class ProfileEntry:
    """Wall-clock attribution for one event-callback identity.

    ``key`` is the callback's ``__qualname__`` (e.g. ``DcfMac._defer_expired``)
    so entries group naturally by component class.
    """

    key: str
    calls: int
    wall_s: float


@dataclass(frozen=True)
class SimulatorStats:
    """Cheap lifetime counters for benchmarking the event engine."""

    executed: int  # events whose callback ran
    cancelled: int  # cancel() calls on not-yet-cancelled events
    skipped: int  # cancelled events discarded at pop time
    compactions: int  # heap rebuilds that purged cancelled events
    pending: int  # events currently in the heap (live + cancelled)
    pending_cancelled: int  # cancelled events currently in the heap
    #: Per-callback wall-clock attribution, sorted by wall time descending;
    #: None unless :meth:`Simulator.enable_profiling` was called.
    profile: Optional[Tuple[ProfileEntry, ...]] = None


class Simulator:
    """A deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.0, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']

    Parameters
    ----------
    compact_min_heap:
        Never compact below this heap size (a rebuild of a tiny heap costs
        more in constant factors than the garbage does).
    compact_ratio:
        Compact once cancelled events exceed this fraction of the heap.
    """

    def __init__(
        self,
        compact_min_heap: int = 256,
        compact_ratio: float = 0.5,
    ) -> None:
        if not 0.0 < compact_ratio <= 1.0:
            raise SimulationError("compact_ratio must be in (0, 1]")
        # Heap entries are (time, seq, event) tuples: the heap invariant is
        # maintained with C-level float/int comparisons instead of a Python
        # __lt__ call per sift step, and seq uniqueness guarantees the event
        # object itself is never compared.
        self._heap: list[tuple[float, int, Event]] = []
        # ``now`` is a plain attribute, not a property: it is read on every
        # timestamp/emit/defer decision (hundreds of thousands of times per
        # run) and the descriptor indirection is measurable.  Treat it as
        # read-only outside the simulator.
        self.now = 0.0
        self._seq = 0
        self._running = False
        self._stopped = False
        self._compact_min_heap = max(1, compact_min_heap)
        self._compact_ratio = compact_ratio
        # Lifetime counters (see stats()).
        self._cancelled_in_heap = 0
        self._executed_total = 0
        self._cancelled_total = 0
        self._skipped_total = 0
        self._compactions = 0
        # Opt-in wall-clock profiling: None means off (the run loop then
        # pays one ``is None`` test per event).
        # Keyed by callback __qualname__; value is [calls, wall_seconds].
        self._profile: Optional[Dict[str, List[float]]] = None

    @property
    def pending_events(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    def stats(self) -> SimulatorStats:
        """Lifetime engine counters (events executed / cancelled / ...)."""
        return SimulatorStats(
            executed=self._executed_total,
            cancelled=self._cancelled_total,
            skipped=self._skipped_total,
            compactions=self._compactions,
            pending=len(self._heap),
            pending_cancelled=self._cancelled_in_heap,
            profile=self.profile_entries(),
        )

    # -- opt-in wall-clock profiling --------------------------------------

    def enable_profiling(self) -> None:
        """Attribute wall-clock and call counts to event callbacks.

        Profiling observes wall time only — it never touches simulation
        state or event ordering, so metrics are bit-identical with it on.
        Accumulation survives multiple :meth:`run` calls until
        :meth:`disable_profiling`.
        """
        if self._profile is None:
            self._profile = {}

    def disable_profiling(self) -> None:
        """Stop profiling and discard the accumulated attribution."""
        self._profile = None

    @property
    def profiling_enabled(self) -> bool:
        return self._profile is not None

    def profile_entries(self) -> Optional[Tuple[ProfileEntry, ...]]:
        """Accumulated per-callback attribution (None when profiling is off),
        sorted by wall time descending, ties broken by key for determinism."""
        if self._profile is None:
            return None
        entries = [
            ProfileEntry(key=key, calls=int(acc[0]), wall_s=acc[1])
            for key, acc in self._profile.items()
        ]
        entries.sort(key=lambda entry: (-entry.wall_s, entry.key))
        return tuple(entries)

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        seq = self._seq + 1
        self._seq = seq
        # Build the event without routing through Event.__init__: this is
        # the hottest allocation in the engine and the extra call frame per
        # schedule shows up in whole-run profiles.
        event = Event.__new__(Event)
        event.time = time
        event.seq = seq
        event.fn = fn
        event.args = args
        event.cancelled = False
        event.owner = self
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def reserve_seq(self) -> int:
        """Take the next sequence number without scheduling anything.

        For wake-ups that usually turn out to be unnecessary: reserve at the
        moment an eager caller would have called :meth:`schedule_at`, and
        call :meth:`schedule_reserved` only if the wake-up is still wanted
        before its instant arrives.  The event then runs exactly where the
        eager one would have (same ``(time, seq)`` key), and every other
        event keeps its key because the counter ticked either way.
        """
        seq = self._seq + 1
        self._seq = seq
        return seq

    def schedule_reserved(
        self, time: float, seq: int, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``fn(*args)`` at ``time`` under a sequence number taken
        earlier with :meth:`reserve_seq` (each reservation is used at most
        once).

        ``time`` must still lie strictly ahead: at ``time == now`` events
        with later sequence numbers may already have run, and the place in
        line the reservation held is gone.
        """
        if time <= self.now:
            raise SimulationError(
                f"a reserved event must be pushed before its instant "
                f"(time={time}, now={self.now})"
            )
        if not 0 < seq <= self._seq:
            raise SimulationError(f"sequence number {seq} was never reserved")
        event = Event(time, seq, fn, args, self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if it already fired)."""
        event.cancel()

    def _note_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`Event.cancel`.

        The in-heap cancelled count can overestimate if an event is cancelled
        *after* it fired (a no-op semantically); compaction resets the count
        from truth, so the drift is self-healing and only ever makes
        compaction slightly eager.
        """
        self._cancelled_total += 1
        self._cancelled_in_heap += 1
        heap_size = len(self._heap)
        if (
            heap_size >= self._compact_min_heap
            and self._cancelled_in_heap >= self._compact_ratio * heap_size
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events and re-heapify.

        Safe at any point (including from inside a running event): the run
        loop re-reads the heap on every iteration, survivors keep their
        ``(time, seq)`` identity, and only events that would have been
        skipped at pop time are removed — the executed sequence is untouched.
        """
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self._compactions += 1

    def stop(self) -> None:
        """Stop the run loop after the currently executing event returns."""
        self._stopped = True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events in order.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly after this
            time; the clock is advanced to ``until``.
        max_events:
            Safety valve: stop after executing this many events.

        Returns
        -------
        int
            The number of (non-cancelled) events executed.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        executed = 0
        heappop = heapq.heappop
        profile = self._profile
        # Operator-facing wall-clock attribution, read only while profiling;
        # never feeds simulation state, which runs purely on sim.now.
        clock = None if profile is None else time.perf_counter
        try:
            while self._heap and not self._stopped:
                entry = self._heap[0]
                event = entry[2]
                if event.cancelled:
                    heappop(self._heap)
                    self._skipped_total += 1
                    self._cancelled_in_heap -= 1
                    continue
                if until is not None and entry[0] > until:
                    break
                heappop(self._heap)
                self.now = entry[0]
                if clock is None:
                    event.fn(*event.args)
                else:
                    fn = event.fn
                    start_wall = clock()
                    fn(*event.args)
                    elapsed = clock() - start_wall
                    key = getattr(fn, "__qualname__", "") or type(fn).__qualname__
                    acc = profile.get(key)
                    if acc is None:
                        profile[key] = [1.0, elapsed]
                    else:
                        acc[0] += 1.0
                        acc[1] += elapsed
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
            if until is not None and not self._stopped and self.now < until:
                self.now = until
            return executed
        finally:
            self._executed_total += executed
            self._running = False
