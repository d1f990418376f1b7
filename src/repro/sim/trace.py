"""Structured event tracing.

The simulator components emit trace records (packet transmissions, link
breaks, cache operations...) through a :class:`Tracer`.  Metrics collection is
implemented as trace subscribers, and tests use tracers to assert on protocol
behaviour without reaching into private state.

Emitting is cheap when nobody listens: :meth:`Tracer.emit` short-circuits if
the event type has no subscribers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List


class TraceRecord:
    """One traced occurrence inside the simulation (one per emit: slotted)."""

    __slots__ = ("time", "kind", "fields")

    def __init__(self, time: float, kind: str, fields: Dict[str, Any]):
        self.time = time
        self.kind = kind
        self.fields = fields

    def __getattr__(self, name: str) -> Any:
        try:
            return self.fields[name]
        except KeyError as exc:  # pragma: no cover - error path
            raise AttributeError(name) from exc


Subscriber = Callable[[TraceRecord], None]


class Tracer:
    """Pub/sub hub for simulation trace records."""

    def __init__(self) -> None:
        self._subscribers: Dict[str, List[Subscriber]] = {}
        self._wildcard: List[Subscriber] = []

    def subscribe(self, kind: str, fn: Subscriber) -> None:
        """Call ``fn`` for every record of type ``kind`` (``"*"`` for all)."""
        if kind == "*":
            self._wildcard.append(fn)
        else:
            self._subscribers.setdefault(kind, []).append(fn)

    def unsubscribe(self, kind: str, fn: Subscriber) -> None:
        """Detach ``fn`` from ``kind`` (``"*"`` for a wildcard subscription).

        Raises :class:`ValueError` if ``fn`` is not currently subscribed — a
        silent no-op would hide double-detach bugs in short-lived subscribers
        (flight recorders, interval snapshotters) that attach per run.

        Removing the last subscriber of a kind restores ``wants(kind)`` to
        False, so guarded hot-path emits go back to costing one dict lookup.
        """
        if kind == "*":
            try:
                self._wildcard.remove(fn)
            except ValueError:
                raise ValueError(f"{fn!r} has no wildcard subscription") from None
            return
        listeners = self._subscribers.get(kind)
        if not listeners or fn not in listeners:
            raise ValueError(f"{fn!r} is not subscribed to kind {kind!r}")
        listeners.remove(fn)
        if not listeners:
            del self._subscribers[kind]

    def wants(self, kind: str) -> bool:
        """True if emitting ``kind`` would reach at least one subscriber."""
        return bool(self._wildcard) or kind in self._subscribers

    def emit(self, time: float, kind: str, **fields: Any) -> None:
        """Publish a record to subscribers of ``kind`` (and wildcards)."""
        listeners = self._subscribers.get(kind)
        if not listeners and not self._wildcard:
            return
        record = TraceRecord(time, kind, fields)
        if listeners:
            for fn in listeners:
                fn(record)
        for fn in self._wildcard:
            fn(record)


class NullTracer(Tracer):
    """A tracer that drops everything; useful default for micro-tests."""

    def emit(self, time: float, kind: str, **fields: Any) -> None:  # noqa: D102
        return
