"""The mobility-model interface used by the rest of the simulator."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mobility.trajectory import Trajectory

Point = Tuple[float, float]


class _TrajectoryPack:
    """All trajectories of a model packed into flat CSR-style arrays.

    ``t0/x0/y0/vx/vy`` concatenate every node's segment fields (node order =
    ``MobilityModel.node_ids``); ``start``/``end`` bound node *i*'s slice.
    ``cursor`` holds each node's current segment index and is advanced
    monotonically — the simulator queries positions at non-decreasing times
    (the neighbour cache samples quantum ticks), so the common case is "no
    segment change" or "advance by one", both O(nodes) vectorized with no
    per-node Python work.  A backwards query resets the cursors and replays,
    which stays correct (just slower), so the API has no monotonicity
    requirement.
    """

    __slots__ = ("t0", "x0", "y0", "vx", "vy", "start", "end", "cursor", "last_t")

    def __init__(self, trajectories: List[Trajectory]):
        arrays = [traj.as_arrays() for traj in trajectories]
        self.t0 = np.concatenate([a[0] for a in arrays])
        self.x0 = np.concatenate([a[1] for a in arrays])
        self.y0 = np.concatenate([a[2] for a in arrays])
        self.vx = np.concatenate([a[3] for a in arrays])
        self.vy = np.concatenate([a[4] for a in arrays])
        counts = np.array([a[0].shape[0] for a in arrays], dtype=np.intp)
        self.end = np.cumsum(counts)
        self.start = self.end - counts
        self.cursor = self.start.copy()
        self.last_t = -np.inf

    def positions(self, t: float) -> np.ndarray:
        if t < self.last_t:
            np.copyto(self.cursor, self.start)
        self.last_t = t
        cursor = self.cursor
        last = self.end - 1
        # Advance each cursor while the *next* segment has already begun
        # (<=, matching bisect_right: at an exact boundary the later segment
        # wins).  Each loop iteration is one vectorized step shared by all
        # nodes; per quantum tick almost every node advances 0 or 1 segments.
        while True:
            nxt = np.minimum(cursor + 1, last)
            advance = (nxt > cursor) & (self.t0[nxt] <= t)
            if not advance.any():
                break
            cursor[advance] += 1
        dt = np.maximum(t - self.t0[cursor], 0.0)
        out = np.empty((cursor.shape[0], 2), dtype=np.float64)
        out[:, 0] = self.x0[cursor] + self.vx[cursor] * dt
        out[:, 1] = self.y0[cursor] + self.vy[cursor] * dt
        return out


class MobilityModel:
    """Maps node ids to trajectories.

    Concrete models precompute a full trajectory per node at construction
    time (the random waypoint's itinerary is independent of the protocol, so
    nothing is lost by fixing it up front — and it guarantees identical
    mobility across protocol variants, as the paper's methodology requires).

    Two query APIs coexist:

    * :meth:`position` — one node, one time; a bisect plus a multiply-add.
    * :meth:`positions` — *all* nodes at one time, vectorized over a packed
      array-of-segments representation.  This is what the per-quantum
      neighbour refresh uses; it produces bit-identical coordinates to the
      per-node path (same segment selection, same IEEE multiply-add).
    """

    def __init__(self, trajectories: Dict[int, Trajectory]):
        self._trajectories = dict(trajectories)
        self._pack: Optional[_TrajectoryPack] = None  # built on first use
        self._speed_bound: Optional[float] = None  # computed on first use

    @property
    def node_ids(self) -> list[int]:
        return sorted(self._trajectories)

    def trajectory(self, node_id: int) -> Trajectory:
        return self._trajectories[node_id]

    def position(self, node_id: int, t: float) -> Point:
        """Position of ``node_id`` at simulation time ``t`` (metres)."""
        return self._trajectories[node_id].position(t)

    def positions(self, t: float) -> np.ndarray:
        """Positions of **all** nodes at time ``t`` as an ``(n, 2)`` array.

        Rows follow :attr:`node_ids` order.  The returned array is freshly
        allocated — callers may keep or mutate it.
        """
        return self._packed().positions(t)

    def _packed(self) -> _TrajectoryPack:
        if self._pack is None:
            self._pack = _TrajectoryPack([self._trajectories[i] for i in self.node_ids])
        return self._pack

    def speed_bound(self) -> float:
        """Largest speed (m/s) any node ever moves at, over all segments.

        Trajectories are piecewise linear, so this bounds every node's
        displacement over any interval: ``|p(t2) - p(t1)| <= bound * |t2 -
        t1|``.  The grid spatial index uses it to decide how long a bucket
        assignment stays valid (:mod:`repro.phy.spatial`); a static layout
        returns 0.0 and is never re-bucketed.
        """
        if self._speed_bound is None:
            pack = self._packed()
            if pack.vx.size == 0:
                self._speed_bound = 0.0
            else:
                self._speed_bound = float(
                    np.sqrt(np.max(pack.vx * pack.vx + pack.vy * pack.vy))
                )
        return self._speed_bound

    def distance(self, a: int, b: int, t: float) -> float:
        """Euclidean distance between two nodes at time ``t``."""
        xa, ya = self.position(a, t)
        xb, yb = self.position(b, t)
        return ((xa - xb) ** 2 + (ya - yb) ** 2) ** 0.5
