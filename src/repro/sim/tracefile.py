"""Trace files, ns-2 style: the line codec, the writer and the readers.

ns-2 users lived off its trace files; this module provides the equivalent
for offline analysis: one line per trace record, either a compact
whitespace format (``text``) or JSON lines (``jsonl``).  The line format is
defined here and nowhere else: :func:`render_text` / :func:`render_jsonl`
write a ``{"t": float, "kind": str, **fields}`` record dict as one line,
:func:`iter_records` reads a file of either format back into the same
dicts, and everything that touches a trace line — :class:`TraceFileWriter`,
the flight recorder's dump, ``repro-trace``, ``replay_metrics`` — goes
through them.

For the writer: attach before the run, ``close()`` (or use as a context
manager) afterwards.

Durability contract: the context manager closes (and therefore flushes)
the file *even when an exception is propagating*, so an aborted run keeps
every record written before the fault; ``flush()`` is available as an
explicit mid-run checkpoint; ``close()`` is idempotent and detaches the
writer from the tracer so no callback leaks into a later run on the same
tracer.

Example line (text format)::

    12.081672 mac.tx node=17 frame_kind=rts dst=31 pkt_kind=None

The jsonl format is the faithful one (typed values, round-trips through
``repro.metrics.replay``).  The text format is for eyeballs and greps:
values are re-read by literal-guessing (int, float, bool, None, else
string), and values containing spaces or ``=`` do not survive the round
trip — use jsonl when the trace feeds a tool rather than a person.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Dict, Iterable, Iterator, Optional, Union

from repro.sim.trace import TraceRecord, Tracer

PathLike = Union[str, Path]

FORMATS = ("text", "jsonl")


# -- the line codec ----------------------------------------------------------


def record_dict(record: TraceRecord) -> Dict[str, Any]:
    """A live :class:`TraceRecord` in the shape the codec reads and writes."""
    return {"t": record.time, "kind": record.kind, **record.fields}


def render_text(record: Dict[str, Any]) -> str:
    """Record dict -> one text-format trace line."""
    fields = " ".join(
        f"{key}={value}"
        for key, value in sorted(record.items())
        if key not in ("t", "kind")
    )
    return f"{record['t']:.6f} {record['kind']} {fields}".rstrip()


def render_jsonl(record: Dict[str, Any]) -> str:
    """Record dict -> one jsonl trace line."""
    return json.dumps(record, default=str, sort_keys=True)


def parse_value(text: str) -> Any:
    """Best-effort typed read of a text-format field value."""
    if text == "None":
        return None
    if text == "True":
        return True
    if text == "False":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_text_line(line: str) -> Dict[str, Any]:
    """``12.081672 mac.tx node=17 frame_kind=rts`` -> record dict."""
    parts = line.split()
    if len(parts) < 2:
        raise ValueError(f"malformed trace line: {line!r}")
    record: Dict[str, Any] = {"t": float(parts[0]), "kind": parts[1]}
    for chunk in parts[2:]:
        key, sep, value = chunk.partition("=")
        if not sep:
            raise ValueError(f"malformed field {chunk!r} in line: {line!r}")
        record[key] = parse_value(value)
    return record


def sniff_format(path: PathLike) -> str:
    """``"jsonl"`` or ``"text"``, by suffix then first non-empty line."""
    target = Path(path)
    if target.suffix in (".jsonl", ".json"):
        return "jsonl"
    with target.open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                return "jsonl" if line.startswith("{") else "text"
    return "text"


def iter_records(path: PathLike, fmt: Optional[str] = None) -> Iterator[Dict[str, Any]]:
    """Yield the records of a trace file in either format.

    Comment lines (leading ``#``, e.g. a flight-recorder header) and blank
    lines are skipped.
    """
    fmt = fmt or sniff_format(path)
    if fmt not in FORMATS:
        raise ValueError(f"unknown trace format {fmt!r}")
    with Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            yield json.loads(line) if fmt == "jsonl" else parse_text_line(line)


# -- the writer --------------------------------------------------------------


class TraceFileWriter:
    """Streams selected trace records to a file."""

    def __init__(
        self,
        tracer: Tracer,
        path: PathLike,
        kinds: Optional[Iterable[str]] = None,
        fmt: str = "text",
    ):
        if fmt not in FORMATS:
            raise ValueError(f"unknown trace format {fmt!r}")
        self.path = Path(path)
        self.fmt = fmt
        self._render = render_jsonl if fmt == "jsonl" else render_text
        self.records_written = 0
        #: Records written so far, broken down by record kind.
        self.counts_by_kind: Dict[str, int] = {}
        self._tracer = tracer
        self._kinds: Optional[list] = None if kinds is None else list(kinds)
        self._handle: Optional[IO[str]] = self.path.open("w")
        if self._kinds is None:
            tracer.subscribe("*", self._write)
        else:
            for kind in self._kinds:
                tracer.subscribe(kind, self._write)
        self._attached = True

    def _write(self, record: TraceRecord) -> None:
        if self._handle is None:
            return
        self._handle.write(self._render(record_dict(record)) + "\n")
        self.records_written += 1
        kind = record.kind
        self.counts_by_kind[kind] = self.counts_by_kind.get(kind, 0) + 1

    def flush(self) -> None:
        """Push buffered lines to the OS — a crash-durability checkpoint."""
        if self._handle is not None:
            self._handle.flush()

    def detach(self) -> None:
        """Unsubscribe from the tracer (keeps the file open); idempotent."""
        if not self._attached:
            return
        self._attached = False
        if self._kinds is None:
            self._tracer.unsubscribe("*", self._write)
        else:
            for kind in self._kinds:
                self._tracer.unsubscribe(kind, self._write)

    def close(self) -> None:
        """Detach, flush and close the file.

        Idempotent, and safe when the run aborted mid-write: the handle is
        released (and the writer neutered) even if the final flush raises.
        """
        self.detach()
        handle, self._handle = self._handle, None
        if handle is None:
            return
        try:
            handle.flush()
        finally:
            handle.close()

    def __enter__(self) -> "TraceFileWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        # Deliberately unconditional: a propagating exception must still
        # flush+close so the records leading up to the fault survive.
        self.close()
