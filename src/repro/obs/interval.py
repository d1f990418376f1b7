"""Per-interval protocol timeseries over a running simulation.

:class:`IntervalMetrics` samples the run's own
:class:`~repro.metrics.collector.MetricsCollector` every ``interval``
simulated seconds and closes one row per tick: the per-interval delta of
every counter :class:`~repro.metrics.collector.SimulationResult` carries,
under the field's own name — the per-interval timeseries ns-2 analyses
script out of trace files, kept by the one count the printed result comes
from, so the rows sum to the result by construction.

A tick only reads the collector and the send buffers: it subscribes to
nothing, never mutates protocol state or draws randomness, so simulation
metrics are bit-identical with the sampler attached or not.  Each row also
carries the sampled ``send_buffer_depth`` and the interval's
``delivery_ratio`` (null when nothing was originated).  Rows export to
JSONL or CSV.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.metrics.collector import SimulationResult
from repro.sim.timers import PeriodicTimer

PathLike = Union[str, Path]
Row = Dict[str, Optional[float]]

_FIELDS = [f.name for f in fields(SimulationResult)]
#: The result's counters, ``data_sent`` through ``salvages`` (``delay_sum`` included).
COLUMNS = tuple(_FIELDS[_FIELDS.index("data_sent") : _FIELDS.index("salvages") + 1])


class IntervalMetrics:
    """A clock and a diff over a ``SimulationHandle``'s collector."""

    def __init__(self, interval: float = 5.0) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.rows: List[Row] = []
        self._sim = None
        self._collector = None
        self._nodes: dict = {}
        self._timer: Optional[PeriodicTimer] = None
        self._last: Dict[str, float] = {}
        self._t_start = 0.0

    def attach(self, handle) -> "IntervalMetrics":
        """Start closing a row of ``handle.metrics`` every interval."""
        if self._sim is not None:
            raise RuntimeError("IntervalMetrics is already attached")
        self._sim, self._collector, self._nodes = handle.sim, handle.metrics, handle.nodes
        self._last = self._counts()
        self._t_start = handle.sim.now
        self._timer = PeriodicTimer(handle.sim, self.interval, self._close_row)
        self._timer.start()
        return self

    def detach(self) -> None:
        """Stop the clock (idempotent); the rows closed so far stay."""
        if self._timer is not None:
            self._timer.stop()
            self._timer = None
        self._sim = self._collector = None

    def finish(self) -> List[Row]:
        """Close the final (possibly partial) interval and return the rows.

        Call after the run returns; a run that ended exactly on a boundary
        gets no empty row, and a second call adds nothing.
        """
        if self._sim is not None and self._sim.now > self._t_start:
            self._close_row()
        return self.rows

    def _counts(self) -> Dict[str, float]:
        return {name: getattr(self._collector, name) for name in COLUMNS}

    def _close_row(self) -> None:
        now = self._sim.now
        counts = self._counts()
        row: Row = {"interval": len(self.rows), "t_start": self._t_start, "t_end": now}
        for name in COLUMNS:
            row[name] = counts[name] - self._last[name]
        row["send_buffer_depth"] = sum(
            len(getattr(node.agent, "send_buffer", ()))
            for node in self._nodes.values()
        )
        sent = row["data_sent"]
        row["delivery_ratio"] = row["data_received"] / sent if sent else None
        self.rows.append(row)
        self._last = counts
        self._t_start = now

    def export_jsonl(self, path: PathLike) -> Path:
        """One JSON object per interval row."""
        target = Path(path)
        with target.open("w") as handle:
            for row in self.rows:
                handle.write(json.dumps(row) + "\n")
        return target

    def export_csv(self, path: PathLike) -> Path:
        """CSV with one column per metric (empty cell for null ratios)."""
        target = Path(path)
        fieldnames = list(self.rows[0]) if self.rows else ["interval", "t_start", "t_end"]
        with target.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames, restval="")
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
        return target
