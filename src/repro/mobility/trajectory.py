"""Piecewise-linear trajectories.

A :class:`Trajectory` is an ordered list of :class:`Segment` objects, each
describing constant-velocity motion starting at a known time and position.
Evaluating a position at time ``t`` is a binary search plus one multiply-add,
so the channel can ask for positions on every frame transmission cheaply.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

Point = Tuple[float, float]


@dataclass(frozen=True)
class Segment:
    """Constant-velocity motion from ``start`` beginning at ``t0``.

    ``vx``/``vy`` are in metres per second.  The segment is open-ended; the
    next segment's ``t0`` bounds it.
    """

    t0: float
    x0: float
    y0: float
    vx: float
    vy: float

    def position(self, t: float) -> Point:
        dt = t - self.t0
        return (self.x0 + self.vx * dt, self.y0 + self.vy * dt)


class Trajectory:
    """An immutable, time-ordered sequence of motion segments."""

    def __init__(self, segments: List[Segment]):
        if not segments:
            raise ValueError("a trajectory needs at least one segment")
        for earlier, later in zip(segments, segments[1:]):
            if later.t0 < earlier.t0:
                raise ValueError("trajectory segments must be time-ordered")
        self._segments = list(segments)
        self._starts = [seg.t0 for seg in self._segments]
        self._arrays: Tuple[np.ndarray, ...] | None = None  # built lazily

    @classmethod
    def stationary(cls, x: float, y: float, t0: float = 0.0) -> "Trajectory":
        """A trajectory that never moves."""
        return cls([Segment(t0=t0, x0=x, y0=y, vx=0.0, vy=0.0)])

    def position(self, t: float) -> Point:
        """Position at time ``t``.

        Before the first segment the node sits at the first segment's start;
        after the last segment it follows that segment's velocity (callers
        are expected to build trajectories covering the whole run, ending in
        a zero-velocity segment).
        """
        first = self._segments[0]
        if t <= first.t0:
            return (first.x0, first.y0)
        index = bisect_right(self._starts, t) - 1
        return self._segments[index].position(t)

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Segment fields as parallel float64 arrays ``(t0, x0, y0, vx, vy)``.

        Built once and cached — this is the representation the vectorized
        position evaluators (:meth:`positions_at` and
        :meth:`repro.mobility.base.MobilityModel.positions`) work on.
        """
        if self._arrays is None:
            segs = self._segments
            self._arrays = (
                np.array([s.t0 for s in segs], dtype=np.float64),
                np.array([s.x0 for s in segs], dtype=np.float64),
                np.array([s.y0 for s in segs], dtype=np.float64),
                np.array([s.vx for s in segs], dtype=np.float64),
                np.array([s.vy for s in segs], dtype=np.float64),
            )
        return self._arrays

    def positions_at(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`position` over an array of query times.

        Returns an ``(len(times), 2)`` array.  Exactly equivalent to calling
        :meth:`position` per time (same segment selection via right-bisect,
        same multiply-add), evaluated with one ``searchsorted`` instead of a
        Python loop per query.
        """
        t0, x0, y0, vx, vy = self.as_arrays()
        times = np.asarray(times, dtype=np.float64)
        index = np.searchsorted(t0, times, side="right") - 1
        np.clip(index, 0, None, out=index)
        # Before the first segment the node sits at the first segment's
        # start: clamping dt at zero reproduces that.
        dt = np.maximum(times - t0[index], 0.0)
        out = np.empty((times.shape[0], 2), dtype=np.float64)
        out[:, 0] = x0[index] + vx[index] * dt
        out[:, 1] = y0[index] + vy[index] * dt
        return out
