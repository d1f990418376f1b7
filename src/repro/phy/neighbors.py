"""Quantised pairwise-connectivity cache.

Evaluating trajectories and distances for every node pair on every frame
transmission would dominate the simulation's running time.  Instead the
channel asks this cache, which refreshes its geometry at most once per
``quantum`` seconds of simulated time and memoises receive/carrier-sense
neighbour information.

The geometry itself lives in a pluggable spatial index
(:mod:`repro.phy.spatial`):

* ``allpairs`` — one vectorized O(n^2) squared-distance matrix per quantum.
  Fastest up to a few hundred nodes; what the paper-scale artifacts use.
* ``grid`` — a uniform-grid cell list (cell edge >= carrier-sense range,
  inflated for bucket reuse), so a per-node query touches only the 3x3 cell
  block around it.  Superlinear win at 1000+ nodes.
* ``auto`` (default) — ``grid`` at or above
  :data:`repro.phy.spatial.GRID_AUTO_NODES` nodes, else ``allpairs``.

The backends are decision-equivalent by construction *and by test*: same
neighbour sets in the same (ascending node id) order, same ``d^2 <= range^2``
comparisons from the same IEEE arithmetic — so simulation metrics are
bit-identical whichever index runs underneath (pinned by
``tests/phy/test_spatial_equivalence.py`` and the golden cross-backend test).

Hot-path decisions, all determinism-preserving:

* **Batched positions.**  The per-quantum refresh samples every node through
  :meth:`repro.mobility.base.MobilityModel.positions` — one vectorized call
  instead of a per-node Python loop.
* **Squared distances.**  Range checks compare ``d^2 <= range^2``; the
  ``sqrt`` only happens when a caller asks for an actual metric distance.
* **One query per node, lazy Python lists.**  The first question about a
  node within a quantum makes one backend query, memoised as arrays:
  carrier-sense rows, an "also in receive range" flag per row, squared
  distances.  The channel builds its delivery plans from those arrays
  (:meth:`listeners`); the Python lists other callers ask for derive from
  the same memo on first use.  Most nodes are silent in
  any 50 ms quantum, so nothing per node is built at refresh time.

At the paper's 20 m/s top speed a node moves 1 m per default 50 ms quantum
— 0.4 % of the 250 m radio range — so quantisation error is negligible; the
tests include an exact-versus-cached comparison.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

import numpy as np

from repro.mobility.base import MobilityModel
from repro.phy.propagation import DiskPropagation
from repro.phy.spatial import GRID_AUTO_NODES, AllPairsIndex, NeighborRows, UniformGridIndex

INDEX_CHOICES = ("auto", "allpairs", "grid")


class NeighborCache:
    """Caches per-quantum neighbour sets for all nodes."""

    def __init__(
        self,
        mobility: MobilityModel,
        propagation: DiskPropagation,
        quantum: float = 0.05,
        index: str = "auto",
    ):
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        if index not in INDEX_CHOICES:
            raise ValueError(
                f"unknown neighbor index {index!r} (choose from {INDEX_CHOICES})"
            )
        self._mobility = mobility
        self._propagation = propagation
        self.quantum = quantum
        #: Node ids in row order: row ``r`` of :meth:`listeners` is ``node_ids[r]``.
        self.node_ids: Sequence[int] = mobility.node_ids
        self._ids_array = np.array(self.node_ids, dtype=np.intp)
        self._index: Dict[int, int] = {
            node_id: i for i, node_id in enumerate(self.node_ids)
        }
        self._rx_sq = propagation.rx_range**2
        self._cs_sq = propagation.cs_range**2
        self._tick = -1
        n = len(self.node_ids)
        if index == "auto":
            index = "grid" if n >= GRID_AUTO_NODES else "allpairs"
        #: The resolved backend name: ``"allpairs"`` or ``"grid"``.
        self.index = index
        self._backend: Union[AllPairsIndex, UniformGridIndex]
        if index == "grid":
            self._backend = UniformGridIndex(
                rx_sq=self._rx_sq,
                cs_sq=self._cs_sq,
                reach=propagation.cs_range,
                speed_bound=mobility.speed_bound(),
                rebucket_horizon_s=max(quantum, 1.0),
            )
        else:
            self._backend = AllPairsIndex(n, self._rx_sq, self._cs_sq)
        # Per-quantum lazy memos, keyed by row index; cleared on refresh.
        self._rows: Dict[int, NeighborRows] = {}
        self._rx_lists: Dict[int, List[int]] = {}
        self._cs_lists: Dict[int, List[int]] = {}

    @property
    def propagation(self) -> DiskPropagation:
        """The disk geometry this cache answers queries for."""
        return self._propagation

    def _refresh(self, t: float) -> None:
        tick = int(t / self.quantum)
        if tick == self._tick:
            return
        self._tick = tick
        sample_time = tick * self.quantum
        self._backend.refresh(self._mobility.positions(sample_time), sample_time)
        self._rows.clear()
        self._rx_lists.clear()
        self._cs_lists.clear()

    def tick(self, t: float) -> int:
        """Refresh for time ``t`` and return the quantum index.

        The tick changes exactly when the cached geometry changes, so callers
        holding derived per-sender state (e.g. the channel's delivery plans)
        can use it as a cheap invalidation token.
        """
        self._refresh(t)
        return self._tick

    def listeners(self, node_id: int, t: float) -> NeighborRows:
        """Everything a delivery plan for ``node_id`` needs, as arrays:
        ``(cs_rows, in_rx, sq)`` — the rows (see :attr:`node_ids`) that sense
        a transmission, ascending; whether each can also decode it; and each
        one's squared distance (its ``np.sqrt`` is bit-identical to
        :meth:`distance`).  One backend query per node per quantum, memoised
        and shared with every other neighbour query: do not mutate."""
        self._refresh(t)
        i = self._index[node_id]
        found = self._rows.get(i)
        if found is None:
            found = self._rows[i] = self._backend.neighbor_rows(i)
        return found

    def rx_neighbors(self, node_id: int, t: float) -> List[int]:
        """Nodes able to decode a transmission from ``node_id`` at time ``t``."""
        self._refresh(t)
        i = self._index[node_id]
        found = self._rx_lists.get(i)
        if found is None:
            cs_rows, in_rx, _sq = self.listeners(node_id, t)
            found = self._ids_array[cs_rows[in_rx]].tolist()
            self._rx_lists[i] = found
        return found

    def cs_neighbors(self, node_id: int, t: float) -> List[int]:
        """Nodes that sense energy from a transmission by ``node_id``."""
        self._refresh(t)
        i = self._index[node_id]
        found = self._cs_lists.get(i)
        if found is None:
            found = self._ids_array[self.listeners(node_id, t)[0]].tolist()
            self._cs_lists[i] = found
        return found

    def connected(self, a: int, b: int, t: float) -> bool:
        """True if ``a`` and ``b`` are within receive range at time ``t``."""
        if a == b:
            return True
        self._refresh(t)
        return bool(
            self._backend.sq_dist(self._index[a], self._index[b]) <= self._rx_sq
        )

    def distance(self, a: int, b: int, t: float) -> float:
        self._refresh(t)
        return float(
            np.sqrt(self._backend.sq_dist(self._index[a], self._index[b]))
        )

    def reachable(self, a: int, b: int, t: float) -> bool:
        """Ground truth: does *any* multi-hop path exist between a and b?

        Used by the reachability-aware delivery metric to separate
        protocol-caused losses from topological partition.  Connected
        components are computed lazily, at most once per quantum, by
        vectorized min-label propagation (:mod:`repro.phy.spatial`).
        """
        if a == b:
            return True
        self._refresh(t)
        labels = self._backend.component_labels()
        return bool(labels[self._index[a]] == labels[self._index[b]])

    def route_valid(self, route: List[int], t: float) -> bool:
        """Ground-truth check: does every consecutive hop lie in range?

        This is the oracle behind the paper's cache-correctness metrics
        ("% good replies", "% invalid cached routes").  One refresh, then the
        scalar comparison :meth:`connected` makes, hop by hop up to the first
        hop out of range: a route is a handful of hops, too few for an index
        array and a vectorized pass to pay for themselves.
        """
        if len(route) < 2:
            return True
        self._refresh(t)
        index = self._index
        sq_dist = self._backend.sq_dist
        rx_sq = self._rx_sq
        row = index[route[0]]
        for node in route[1:]:
            following = index[node]
            if sq_dist(row, following) > rx_sq:
                return False
            row = following
        return True
