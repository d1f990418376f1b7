"""Metrics instruments: Counter, Gauge, Histogram, and their registry.

They back the service's ``/metrics`` (:mod:`repro.service.metrics`), fed
with serving quantities — queue depth, jobs by state, per-job and
per-stage wall time.  Snapshots are flat ``{name: value}`` dicts.

Instruments are deliberately **lock-free**: every writer in the service
already holds a lock (the service's, or ``ServiceMetrics``' own), and
readers only ever see completed snapshots.  Do not add synchronisation
here; aggregate via snapshots instead.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing count (events, packets, drops...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def snapshot(self) -> Dict[str, float]:
        return {self.name: self.value}


class Gauge:
    """A point-in-time sampled value (queue depth, cache size...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: Number) -> None:
        self.value = float(value)

    def snapshot(self) -> Dict[str, float]:
        return {self.name: self.value}


class Histogram:
    """A cumulative-bucket histogram over observed values.

    ``buckets`` are inclusive upper bounds; an implicit +inf bucket catches
    the rest.  The snapshot flattens to ``name.count``, ``name.sum`` and one
    cumulative ``name.le.<bound>`` key per finite bucket.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum")

    def __init__(self, name: str, buckets: Sequence[Number]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram {name!r} buckets must be sorted and unique")
        self.name = name
        self.bounds = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)  # +1 for +inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: Number) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def snapshot(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            f"{self.name}.count": float(self.count),
            f"{self.name}.sum": self.sum,
        }
        cumulative = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            cumulative += n
            out[f"{self.name}.le.{bound:g}"] = float(cumulative)
        return out


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A named, ordered collection of instruments.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice for
    the same name returns the same instrument, and asking for an existing
    name with a different instrument type raises (silent shadowing would
    split one logical metric across two objects).
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def _get_or_create(self, name: str, factory, kind) -> Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise TypeError(
                    f"instrument {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name), Gauge)

    def histogram(self, name: str, buckets: Sequence[Number]) -> Histogram:
        return self._get_or_create(name, lambda: Histogram(name, buckets), Histogram)

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def __iter__(self) -> Iterator[Instrument]:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> Dict[str, float]:
        """Flat merged snapshot, keys in instrument registration order."""
        out: Dict[str, float] = {}
        for instrument in self._instruments.values():
            out.update(instrument.snapshot())
        return out
