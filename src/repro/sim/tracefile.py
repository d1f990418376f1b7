"""Trace files, ns-2 style: the record codec, the writer and the reader.

ns-2 users lived off its trace files; this module provides the equivalent
for offline analysis.  A trace file is JSON lines and nothing else: one
``{"t": float, "kind": str, **fields}`` object per line, values typed as
the emitter passed them (a tuple comes back as a list), optionally under
``#`` comment lines.  The format is defined here and nowhere else:
:func:`render_jsonl` writes a record dict as one line,
:func:`iter_records` reads a file back into the same dicts, and
everything that touches a trace line — :class:`TraceFileWriter`, the
flight recorder's dump, ``repro-trace``, ``replay_metrics`` — goes through
them.  The greppable ``12.081672 mac.tx dst=31 node=17`` view is a
*rendering* of a record, printed by ``repro-trace filter``; nothing reads
it back.

For the writer: attach before the run, ``close()`` (or use as a context
manager) afterwards.

Durability contract: the context manager closes (and therefore flushes)
the file *even when an exception is propagating*, so an aborted run keeps
every record written before the fault; ``flush()`` is available as an
explicit mid-run checkpoint; ``close()`` is idempotent and detaches the
writer from the tracer so no callback leaks into a later run on the same
tracer.  A run that is killed outright (SIGKILL, the OOM killer) cannot
close anything and leaves a file whose last line is cut mid-record: the
reader skips that one torn tail and keeps everything before it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Dict, Generator, Iterable, Optional, Union

from repro.sim.trace import TraceRecord, Tracer

PathLike = Union[str, Path]


# -- the line codec ----------------------------------------------------------


def record_dict(record: TraceRecord) -> Dict[str, Any]:
    """A live :class:`TraceRecord` in the shape the codec reads and writes."""
    return {"t": record.time, "kind": record.kind, **record.fields}


def render_jsonl(record: Dict[str, Any]) -> str:
    """Record dict -> one trace line."""
    return json.dumps(record, default=str, sort_keys=True)


def iter_records(path: PathLike) -> Generator[Dict[str, Any], None, int]:
    """Yield the records of a trace file; return how many torn lines it skipped.

    Comment lines (leading ``#``, e.g. a flight-recorder header) and blank
    lines are skipped.  A final line with no terminating newline that does
    not parse is what a killed writer leaves behind: it is skipped and
    counted (0 or 1, the generator's return value).  Any other line that is
    not a record raises ``ValueError("<path>:<lineno>: not a jsonl trace
    record")`` — there is no second format to fall back to.
    """
    with Path(path).open() as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if not (isinstance(record, dict) and "t" in record and "kind" in record):
                if not raw.endswith("\n"):
                    return 1  # only a file's last line can lack its newline
                raise ValueError(f"{path}:{lineno}: not a jsonl trace record")
            yield record
    return 0


# -- the writer --------------------------------------------------------------


class TraceFileWriter:
    """Streams selected trace records to a file."""

    def __init__(
        self,
        tracer: Tracer,
        path: PathLike,
        kinds: Optional[Iterable[str]] = None,
    ):
        self.path = Path(path)
        self.records_written = 0
        #: Records written so far, broken down by record kind.
        self.counts_by_kind: Dict[str, int] = {}
        self._tracer = tracer
        # "*" is the tracer's wildcard kind: no kinds given means every record.
        self._kinds = ["*"] if kinds is None else list(kinds)
        self._handle: Optional[IO[str]] = self.path.open("w")
        for kind in self._kinds:
            tracer.subscribe(kind, self._write)
        self._attached = True

    def _write(self, record: TraceRecord) -> None:
        if self._handle is None:
            return
        self._handle.write(render_jsonl(record_dict(record)) + "\n")
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
