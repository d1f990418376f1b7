"""Engine wall-clock profiler: where does a run's host time go?

The measurement itself lives in the engine (:meth:`Simulator.
enable_profiling` — one ``is None`` test per event when off);
this module is the reporting layer: grouping per-callback attribution by
component class and rendering the table ``repro-run --profile`` prints::

    sim.enable_profiling()
    sim.run(until=duration)
    print(ProfileReport(entries=sim.profile_entries()).format())

Profiling observes wall time only and never feeds simulation state, so a
profiled run produces bit-identical metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.engine import ProfileEntry


@dataclass(frozen=True)
class ComponentProfile:
    """Attribution rolled up to one component (callback qualname prefix)."""

    component: str
    calls: int
    wall_s: float


@dataclass(frozen=True)
class ProfileReport:
    """A finished profile: per-callback entries plus component roll-ups."""

    entries: Tuple[ProfileEntry, ...]

    @property
    def total_wall_s(self) -> float:
        return sum(entry.wall_s for entry in self.entries)

    @property
    def total_calls(self) -> int:
        return sum(entry.calls for entry in self.entries)

    def by_component(self) -> List[ComponentProfile]:
        """Entries grouped by the class part of the callback qualname
        (``DcfMac._defer_expired`` -> ``DcfMac``), sorted by wall desc."""
        groups: Dict[str, List[float]] = {}
        for entry in self.entries:
            component = entry.key.split(".", 1)[0]
            acc = groups.setdefault(component, [0.0, 0.0])
            acc[0] += entry.calls
            acc[1] += entry.wall_s
        rolled = [
            ComponentProfile(component=name, calls=int(acc[0]), wall_s=acc[1])
            for name, acc in groups.items()
        ]
        rolled.sort(key=lambda c: (-c.wall_s, c.component))
        return rolled

    def format(self, top: Optional[int] = 15) -> str:
        """Human-readable table: callbacks ranked by wall time."""
        total = self.total_wall_s or 1.0
        lines = [
            f"engine profile: {self.total_calls} calls, "
            f"{self.total_wall_s * 1000.0:.1f} ms in callbacks",
            f"{'callback':<44} {'calls':>9} {'wall ms':>10} {'%':>6}",
        ]
        entries = self.entries[:top] if top is not None else self.entries
        for entry in entries:
            lines.append(
                f"{entry.key[:44]:<44} {entry.calls:>9} "
                f"{entry.wall_s * 1000.0:>10.2f} {100.0 * entry.wall_s / total:>6.1f}"
            )
        hidden = len(self.entries) - len(entries)
        if hidden > 0:
            lines.append(f"... {hidden} more callback(s)")
        return "\n".join(lines)

