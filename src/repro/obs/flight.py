"""Flight recorder: a bounded ring of the most recent trace records.

When a simulation dies mid-run, the final metrics are useless and the full
trace may not have been requested — the flight recorder keeps the last N
:class:`TraceRecord`s in memory (wildcard subscription, O(1) per record)
and dumps them on demand or when :meth:`armed` catches a propagating
exception, ns-2 post-mortem style but without the gigabyte trace file.

A dump is a trace file like any other — one ``#`` header line, then the
ring as the jsonl lines ``TraceFileWriter`` would have written — so
``repro-trace`` and ``replay_metrics`` read it as they read a full trace.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Deque, Dict, Iterable, Iterator, List, Optional, Union

from repro.sim.trace import TraceRecord, Tracer
from repro.sim.tracefile import record_dict, render_jsonl

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.collector import SimulationResult

PathLike = Union[str, Path]


class FlightRecorder:
    """Ring buffer of recent trace records, attached to a tracer.

    Parameters
    ----------
    tracer:
        The hub to record from (attaches immediately).
    capacity:
        Ring size; older records are evicted in O(1).
    kinds:
        Record only these kinds (default: everything).  Note that any
        wildcard subscription makes *all* guarded emits fire, so a
        kind-filtered recorder is also the cheaper one.
    """

    def __init__(
        self,
        tracer: Tracer,
        capacity: int = 512,
        kinds: Optional[Iterable[str]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.records_seen = 0
        self._ring: Deque[TraceRecord] = deque(maxlen=capacity)
        self._tracer = tracer
        self._kinds: List[str] = ["*"] if kinds is None else list(kinds)
        for kind in self._kinds:
            tracer.subscribe(kind, self._record)
        self._attached = True

    def _record(self, record: TraceRecord) -> None:
        self._ring.append(record)
        self.records_seen += 1

    # -- lifecycle ---------------------------------------------------------

    def detach(self) -> None:
        """Unsubscribe from the tracer (the ring stays readable); idempotent."""
        if not self._attached:
            return
        self._attached = False
        for kind in self._kinds:
            self._tracer.unsubscribe(kind, self._record)

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def records(self) -> List[TraceRecord]:
        """Oldest-to-newest snapshot of the ring."""
        return list(self._ring)

    def format(self) -> str:
        """The ring as trace-file lines under a one-line ``#`` header."""
        dropped = self.records_seen - len(self._ring)
        header = (
            f"# flight recorder: last {len(self._ring)} of "
            f"{self.records_seen} record(s) (capacity {self.capacity}, "
            f"{dropped} older evicted)"
        )
        return "\n".join([header, *(render_jsonl(record_dict(record)) for record in self._ring)])

    def dump(self, path: PathLike) -> Path:
        """Write :meth:`format` to ``path`` and return it."""
        target = Path(path)
        target.write_text(self.format() + "\n")
        return target

    # -- fault handling ----------------------------------------------------

    @contextmanager
    def armed(self, path: PathLike) -> Iterator["FlightRecorder"]:
        """Dump the ring to ``path`` if the body raises, then re-raise.

        >>> recorder = FlightRecorder(handle.tracer)        # doctest: +SKIP
        >>> with recorder.armed("crash-context.jsonl"):     # doctest: +SKIP
        ...     handle.run()
        """
        try:
            yield self
        except BaseException:
            self.dump(path)
            raise


class FlightRecordingTaskFn:
    """A sweep ``TaskFn`` that crash-dumps the simulation's trace ring.

    A drop-in replacement for the engine's default run-scenario task:
    it builds the simulation itself, attaches a :class:`FlightRecorder`
    to the handle's tracer, and runs.  If the run raises, the last
    ``capacity`` trace records land in
    ``<directory>/crash-pid<pid>-seed<seed>-run<n>.trace`` before the
    error propagates — a post-mortem for ``repro-worker`` and
    ``repro-serve`` without ns-2-style gigabyte trace files.

    :meth:`dump_now` snapshots the ring of the simulation currently in
    flight (``repro-worker``'s SIGTERM-mid-shard path: the handler runs
    on the main thread, between bytecodes of the running task).

    Instances are picklable for pooled engines — the in-flight recorder
    is dropped on pickling, so each worker process records its own runs
    into the shared directory.
    """

    def __init__(self, directory: PathLike, capacity: int = 512) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.directory = Path(directory)
        self.capacity = capacity
        self.dumps: List[Path] = []
        self._runs = 0
        self._current: Optional[FlightRecorder] = None
        self._current_label = ""

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_current"] = None  # the live recorder never crosses a pickle
        state["_current_label"] = ""
        return state

    def _path(self, name: str) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        return self.directory / f"{name}.trace"

    def __call__(self, payload: dict) -> "SimulationResult":
        from repro.scenarios.builder import build_simulation
        from repro.scenarios.io import scenario_from_dict

        handle = build_simulation(scenario_from_dict(payload))
        recorder = FlightRecorder(handle.tracer, capacity=self.capacity)
        self._runs += 1
        label = f"pid{os.getpid()}-seed{payload.get('seed', '?')}-run{self._runs}"
        self._current = recorder
        self._current_label = label
        try:
            result = handle.run()
        except BaseException:
            self.dumps.append(recorder.dump(self._path(f"crash-{label}")))
            raise
        finally:
            self._current = None
            self._current_label = ""
            recorder.detach()
        return result

    def dump_now(self, tag: str = "signal") -> Optional[Path]:
        """Dump the in-flight simulation's ring (``None`` when idle)."""
        recorder = self._current
        label = self._current_label
        if recorder is None or not label:
            return None
        path = recorder.dump(self._path(f"{tag}-{label}"))
        self.dumps.append(path)
        return path
