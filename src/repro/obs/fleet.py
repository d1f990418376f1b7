"""Fleet-wide distributed tracing for the simulation service.

One *trace* is the life of one job: submitted to the coordinator, queued,
dispatched (locally or onto the shard board), executed — possibly by
several remote workers — and delivered.  Every stage is a :class:`Span`:
a ``(trace_id, span_id, parent_id, kind, start, end)`` record plus the
process that produced it, so a job's trace is a tree that crosses process
boundaries.  Trace context travels on the existing JSON API as the
``X-Repro-Trace`` header (``trace_id/span_id``): the coordinator hands it
to workers with each shard claim, and worker spans ship back with the
shard completion (or via ``POST /v1/spans``) to merge into the
coordinator's trace.

:class:`FleetTracer` is the per-process span store.  It is deliberately
small and boring: pure in-memory, one ranked lock, an injectable clock
(wall time is serving metadata here, never simulation state), and a hard
``enabled=False`` fast path — a disabled tracer costs one attribute check
per would-be span: no call into it, no lock, no :class:`Span`
(``tests/service/test_tracing.py`` counts all three).

The second half of the module is pure trace *analysis* — span trees,
interval coverage, critical paths, per-kind/per-process breakdowns — used
by the ``repro-trace job`` CLI, the distributed smoke test's coverage
assertion, and the property tests.  Everything here works on plain span
dicts so journaled and over-the-wire spans need no re-hydration.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.devtools.lockdep import OrderedLock

__all__ = [
    "SPAN_KINDS",
    "TRACE_HEADER",
    "Span",
    "FleetTracer",
    "new_trace_id",
    "new_span_id",
    "format_trace_context",
    "parse_trace_context",
    "span_index",
    "span_children",
    "validate_spans",
    "find_root",
    "union_seconds",
    "trace_coverage",
    "critical_path",
    "trace_breakdown",
]

#: The HTTP header carrying trace context across process boundaries.
TRACE_HEADER = "X-Repro-Trace"

#: The typed stages a job's trace is made of.  ``job`` is the root span
#: (submission to terminal state); the rest are its descendants.
SPAN_KINDS = frozenset(
    {
        "job",
        "submit",
        "queue.wait",
        "dispatch",
        "shard.lease",
        "shard.execute",
        "task.run",
        "cache.lookup",
        "cache.remote",
        "result.deliver",
        "journal.fsync",
    }
)

#: A worker whose busy time exceeds the fleet median by this factor is
#: highlighted as the straggler in breakdowns.
STRAGGLER_FACTOR = 1.5


def new_trace_id() -> str:
    """An opaque trace id (one per job; shared across every process)."""
    return "t-" + uuid.uuid4().hex[:16]


def new_span_id() -> str:
    return uuid.uuid4().hex[:12]


def format_trace_context(trace_id: str, span_id: str) -> str:
    """The ``X-Repro-Trace`` header value: ``trace_id/span_id``."""
    return f"{trace_id}/{span_id}"


def parse_trace_context(value: Optional[str]) -> Optional[Tuple[str, str]]:
    """Parse a header value back into ``(trace_id, parent_span_id)``.

    Junk (empty, missing separator, blank halves) is ``None``, never an
    error: a malformed header means an untraced request, not a failure.
    """
    if not value or not isinstance(value, str):
        return None
    head, sep, tail = value.strip().partition("/")
    if not sep or not head or not tail:
        return None
    return head, tail


@dataclass
class Span:
    """One timed stage of a job, in one process."""

    trace_id: str
    span_id: str
    kind: str
    proc: str  # the process that produced it ("coordinator", worker id…)
    start: float  # wall-clock seconds (serving metadata, never sim state)
    parent_id: Optional[str] = None
    end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def duration(self) -> float:
        """Seconds between start and end; 0.0 while the span is open."""
        if self.end is None:
            return 0.0
        return max(0.0, self.end - self.start)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "kind": self.kind,
            "proc": self.proc,
            "start": self.start,
        }
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.end is not None:
            out["end"] = self.end
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out

    @classmethod
    def from_dict(cls, blob: Dict[str, Any]) -> "Span":
        """Rebuild a span from its JSON form; ``ValueError`` on junk."""
        if not isinstance(blob, dict):
            raise ValueError("span record is not an object")
        for key in ("trace_id", "span_id", "kind", "proc"):
            value = blob.get(key)
            if not isinstance(value, str) or not value:
                raise ValueError(f"span record needs a non-empty string {key!r}")
        if not isinstance(blob.get("start"), (int, float)):
            raise ValueError("span record needs a numeric 'start'")
        end = blob.get("end")
        if end is not None and not isinstance(end, (int, float)):
            raise ValueError("span 'end' must be numeric when present")
        parent = blob.get("parent_id")
        if parent is not None and not isinstance(parent, str):
            raise ValueError("span 'parent_id' must be a string when present")
        attrs = blob.get("attrs") or {}
        if not isinstance(attrs, dict):
            raise ValueError("span 'attrs' must be an object when present")
        return cls(
            trace_id=blob["trace_id"],
            span_id=blob["span_id"],
            kind=blob["kind"],
            proc=blob["proc"],
            start=float(blob["start"]),
            parent_id=parent,
            end=None if end is None else float(end),
            attrs=dict(attrs),
        )


class FleetTracer:
    """Per-process span factory and store (thread-safe, bounded).

    ``enabled=False`` turns every :meth:`start`/:meth:`finish` into a
    near-free no-op (spans are neither created nor stored), which is the
    service's tracing-off mode.  ``clock`` is injectable for tests; the
    default reads the host wall clock — spans are serving metadata and
    never feed simulation state.
    """

    def __init__(
        self,
        proc: str,
        enabled: bool = True,
        clock: Optional[Callable[[], float]] = None,
        max_traces: int = 1024,
        on_finish: Optional[Callable[[Span], None]] = None,
    ) -> None:
        self.proc = proc
        self.enabled = enabled
        self._clock = clock if clock is not None else time.time
        self.max_traces = max(1, max_traces)
        self._on_finish = on_finish
        # Rank 45: above the service/board/metrics locks (spans finish
        # while they are held), below the cache/journal I/O locks — the
        # tracer itself never acquires anything while holding this.
        self._lock = OrderedLock("obs.fleet", rank=45, reentrant=False)
        self._spans: Dict[str, List[Span]] = {}  # guarded-by: _lock
        self._order: List[str] = []  # trace insertion order; guarded-by: _lock

    def set_on_finish(self, callback: Optional[Callable[[Span], None]]) -> None:
        """Install the finished-span hook (e.g. per-stage histograms).

        The hook is always invoked *outside* the tracer's lock, so it may
        take lower-ranked locks (the service metrics lock) freely.
        """
        self._on_finish = callback

    # -- producing spans -----------------------------------------------------

    def now(self) -> float:
        return float(self._clock())

    def start(
        self,
        kind: str,
        trace_id: Optional[str],
        parent_id: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Optional[Span]:
        """Open a span (not stored until :meth:`finish`); ``None`` when
        disabled or the caller has no trace context."""
        if not self.enabled or not trace_id:
            return None
        if kind not in SPAN_KINDS:
            raise ValueError(f"unknown span kind: {kind!r}")
        return Span(
            trace_id=trace_id,
            span_id=new_span_id(),
            kind=kind,
            proc=self.proc,
            start=self.now(),
            parent_id=parent_id,
            attrs=dict(attrs or {}),
        )

    def finish(self, span: Optional[Span], **attrs: Any) -> Optional[Span]:
        """Close and store a span; a ``None`` span is a silent no-op."""
        if span is None:
            return None
        if span.end is None:
            span.end = self.now()
        if attrs:
            span.attrs.update(attrs)
        with self._lock:
            self._store_locked(span)
        on_finish = self._on_finish  # called outside the lock (rank 40 < 45)
        if on_finish is not None:
            on_finish(span)
        return span

    # -- ingesting finished spans (workers, journal replay) ------------------

    def add_spans(
        self, blobs: Iterable[Dict[str, Any]], record_metrics: bool = True
    ) -> int:
        """Store already-finished span dicts (validated; junk is skipped).

        ``record_metrics=False`` suppresses the ``on_finish`` callback —
        used for journal replay, where spans were already counted by the
        process that produced them.
        """
        if not self.enabled:
            return 0
        accepted: List[Span] = []
        for blob in blobs:
            try:
                accepted.append(Span.from_dict(blob))
            except ValueError:
                continue
        with self._lock:
            for span in accepted:
                self._store_locked(span)
        on_finish = self._on_finish
        if record_metrics and on_finish is not None:
            for span in accepted:
                if span.end is not None:
                    on_finish(span)
        return len(accepted)

    def _store_locked(self, span: Span) -> None:
        spans = self._spans.get(span.trace_id)
        if spans is None:
            spans = self._spans[span.trace_id] = []
            self._order.append(span.trace_id)
            while len(self._order) > self.max_traces:
                evicted = self._order.pop(0)
                self._spans.pop(evicted, None)
        spans.append(span)

    # -- reading -------------------------------------------------------------

    def trace(self, trace_id: str) -> List[Span]:
        """The trace's finished spans, ordered by (start, span_id)."""
        with self._lock:
            spans = list(self._spans.get(trace_id, []))
        return sorted(spans, key=lambda s: (s.start, s.span_id))

    def trace_dicts(self, trace_id: str) -> List[Dict[str, Any]]:
        return [span.to_dict() for span in self.trace(trace_id)]

    def trace_count(self) -> int:
        with self._lock:
            return len(self._spans)

    def discard(self, trace_id: str) -> None:
        with self._lock:
            if trace_id in self._spans:
                del self._spans[trace_id]
                self._order.remove(trace_id)


# -- pure trace analysis -----------------------------------------------------
#
# Everything below operates on plain span dicts (the JSON form), so it
# serves the CLI, the smoke tests and the journal replay equally.


def span_index(spans: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """span_id -> span (last record wins on duplicate ids)."""
    return {str(span.get("span_id")): span for span in spans}


def span_children(
    spans: Iterable[Dict[str, Any]],
) -> Dict[Optional[str], List[Dict[str, Any]]]:
    """parent_id -> children, each list ordered by (start, span_id)."""
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)
    for group in children.values():
        group.sort(key=lambda s: (s.get("start", 0.0), str(s.get("span_id"))))
    return children


def validate_spans(spans: List[Dict[str, Any]]) -> List[str]:
    """Structural problems in a span list: duplicate ids, parent cycles.

    Dangling parents (a parent id no span in the list carries) are *not*
    errors — pre-restart spans legitimately reference a root the crashed
    coordinator never journaled.
    """
    errors: List[str] = []
    seen: Dict[str, int] = {}
    for span in spans:
        span_id = str(span.get("span_id"))
        seen[span_id] = seen.get(span_id, 0) + 1
    for span_id, count in sorted(seen.items()):
        if count > 1:
            errors.append(f"duplicate span_id {span_id!r} ({count} records)")
    index = span_index(spans)
    for span in spans:
        walked: List[str] = []
        node: Optional[Dict[str, Any]] = span
        hops = set()
        while node is not None:
            node_id = str(node.get("span_id"))
            if node_id in hops:
                errors.append(
                    "parent cycle: " + " -> ".join(walked + [node_id])
                )
                break
            hops.add(node_id)
            walked.append(node_id)
            parent = node.get("parent_id")
            node = index.get(parent) if parent is not None else None
    return sorted(set(errors))


def find_root(spans: List[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """The trace's root: a ``job`` span if present, else the longest span
    whose parent is absent from the list."""
    if not spans:
        return None
    jobs = [span for span in spans if span.get("kind") == "job"]
    if jobs:
        return max(jobs, key=_span_duration)
    index = span_index(spans)
    orphans = [
        span for span in spans if span.get("parent_id") not in index
    ]
    return max(orphans or spans, key=_span_duration)


def _span_duration(span: Dict[str, Any]) -> float:
    start = float(span.get("start", 0.0))
    end = span.get("end")
    if end is None:
        return 0.0
    return max(0.0, float(end) - start)


def _span_interval(span: Dict[str, Any]) -> Optional[Tuple[float, float]]:
    end = span.get("end")
    if end is None:
        return None
    start = float(span.get("start", 0.0))
    return (start, max(start, float(end)))


def union_seconds(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    merged = sorted((lo, hi) for lo, hi in intervals if hi > lo)
    total = 0.0
    cursor: Optional[float] = None
    high = 0.0
    for lo, hi in merged:
        if cursor is None or lo > high:
            if cursor is not None:
                total += high - cursor
            cursor, high = lo, hi
        else:
            high = max(high, hi)
    if cursor is not None:
        total += high - cursor
    return total


def trace_coverage(spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    """How much of the root span's wall the other spans account for.

    Returns the root duration, the union-covered seconds (descendant
    intervals clipped to the root window), the coverage fraction, and the
    set of processes that contributed spans — the quantities the
    distributed smoke asserts on (≥2 processes, ≥95% coverage).
    """
    root = find_root(spans)
    procs = sorted({str(s.get("proc", "?")) for s in spans})
    if root is None:
        return {"root_s": 0.0, "covered_s": 0.0, "coverage": 0.0, "procs": procs}
    root_iv = _span_interval(root)
    if root_iv is None or root_iv[1] <= root_iv[0]:
        return {"root_s": 0.0, "covered_s": 0.0, "coverage": 0.0, "procs": procs}
    lo, hi = root_iv
    clipped: List[Tuple[float, float]] = []
    for span in spans:
        if span is root:
            continue
        interval = _span_interval(span)
        if interval is None:
            continue
        clipped.append((max(lo, interval[0]), min(hi, interval[1])))
    covered = union_seconds(clipped)
    root_s = hi - lo
    return {
        "root_s": root_s,
        "covered_s": covered,
        "coverage": covered / root_s,
        "procs": procs,
    }


def critical_path(spans: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Root-to-leaf chain of latest-ending children: the spans that kept
    the job's completion waiting.  Each step is the span dict plus a
    ``self_s`` key — its duration not explained by the next step — so the
    steps' ``self_s`` sum to (approximately) the root's duration."""
    root = find_root(spans)
    if root is None:
        return []
    children = span_children(spans)
    path: List[Dict[str, Any]] = []
    node = root
    visited = set()
    while node is not None:
        node_id = str(node.get("span_id"))
        if node_id in visited:
            break  # defensive: a parent cycle must not hang the CLI
        visited.add(node_id)
        kids = [
            kid for kid in children.get(node_id, []) if kid.get("end") is not None
        ]
        nxt = max(kids, key=lambda kid: float(kid["end"])) if kids else None
        step = dict(node)
        step["self_s"] = max(
            0.0, _span_duration(node) - (_span_duration(nxt) if nxt else 0.0)
        )
        path.append(step)
        node = nxt
    return path


def trace_breakdown(spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The "where did the time go" summary of one job trace.

    * ``by_kind`` — per span kind: count, total seconds, busy seconds
      (union of that kind's intervals — overlap-free);
    * ``by_proc`` — per process: span count and busy seconds, with the
      straggler (busy > :data:`STRAGGLER_FACTOR` × median among workers)
      flagged;
    * ``coverage`` — :func:`trace_coverage` of the same spans.
    """
    by_kind: Dict[str, Dict[str, float]] = {}
    by_proc: Dict[str, Dict[str, float]] = {}
    for span in spans:
        kind = str(span.get("kind", "?"))
        proc = str(span.get("proc", "?"))
        duration = _span_duration(span)
        kind_row = by_kind.setdefault(kind, {"count": 0, "total_s": 0.0})
        kind_row["count"] += 1
        kind_row["total_s"] += duration
        proc_row = by_proc.setdefault(proc, {"count": 0, "busy_s": 0.0})
        proc_row["count"] += 1
    for kind, row in by_kind.items():
        intervals = [
            iv
            for span in spans
            if str(span.get("kind")) == kind
            and (iv := _span_interval(span)) is not None
        ]
        row["busy_s"] = union_seconds(intervals)
    for proc, row in by_proc.items():
        intervals = [
            iv
            for span in spans
            if str(span.get("proc", "?")) == proc
            and (iv := _span_interval(span)) is not None
        ]
        row["busy_s"] = union_seconds(intervals)
    workers = {
        proc: row
        for proc, row in by_proc.items()
        if any(
            str(s.get("proc", "?")) == proc and s.get("kind") == "shard.execute"
            for s in spans
        )
    }
    busies = sorted(row["busy_s"] for row in workers.values())
    median = busies[len(busies) // 2] if busies else 0.0
    stragglers = sorted(
        proc
        for proc, row in workers.items()
        if len(workers) > 1 and median > 0 and row["busy_s"] > STRAGGLER_FACTOR * median
    )
    return {
        "by_kind": by_kind,
        "by_proc": by_proc,
        "stragglers": stragglers,
        "coverage": trace_coverage(spans),
    }
