"""Spatial-index backends for the per-quantum neighbour refresh.

The neighbour cache needs, once per quantum, the answer to "who is within
``rx_range`` / ``cs_range`` of node *i*?".  Two interchangeable backends
provide it:

* :class:`AllPairsIndex` — the PR 1 approach: one vectorized squared-distance
  matrix per quantum.  O(n^2) work and memory per refresh, unbeatable at the
  paper's 100 nodes, the wall at 1000+.
* :class:`UniformGridIndex` — a cell-list index.  Nodes are bucketed into a
  uniform grid whose cell edge is at least the carrier-sense range, so every
  geometric neighbour of a node lives in the 3x3 block around its cell and a
  per-node query touches O(density) candidates instead of O(n).

Both backends consume the same quantum-sampled ``positions`` array and are
required to produce **bit-identical decisions**: squared distances are
computed with the same IEEE operations (``dx*dx + dy*dy`` in float64, the
contraction order :func:`numpy.einsum` uses), candidate lists are reported in
ascending row order (the order the all-pairs boolean masks imply), and range
tests compare the identical ``d^2 <= range^2`` values.  The equivalence is
pinned by property tests over random and adversarial layouts
(``tests/phy/test_spatial_equivalence.py``).

Incremental updates
-------------------

Trajectories are piecewise linear, so every model exposes a finite speed
bound.  The grid exploits it: buckets are built for positions at bucket time
and reused while every node can have drifted at most ``max_drift`` metres
(``speed_bound * |t - bucket_time|``).  The cell edge is inflated by
``2 * max_drift`` over the carrier-sense range, which keeps the 3x3-block
containment guarantee exact for *current* positions even though the bucket
assignment is stale: a pair within ``reach`` now was within
``reach + 2*max_drift <= cell`` at bucket time, and any pair outside the 3x3
block was separated by more than one cell edge at bucket time.  Range
decisions always use current positions — staleness only ever widens the
candidate set, never the result.  At the paper's 20 m/s and the default
1-second rebucket horizon that is a 40 m slack on a 550 m cell, and a full
rebucket (one argsort) runs once per simulated second instead of once per
50 ms quantum.  The sorted rows of a cell's 3x3 block are a function of the
buckets alone, so they too are gathered once per cell per rebucket (on the
cell's first query) and shared by every row of the cell; a query masks
itself out of the result instead of out of the candidates.

Determinism: every structure here is a numpy array ordered by node row or by
numeric cell key, or a dict that is only ever looked up by key — no dict/set
iteration can reach callers (the hash-seed test in
``tests/integration/test_determinism.py`` guards the scheduling side).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

#: A backend's ``neighbor_rows(row)`` answer, ``(cs_rows, in_rx, sq)`` — all a
#: delivery plan needs from one query: carrier-sense rows ascending, a flag per
#: row ("also in receive range": receive rows are ``cs_rows[in_rx]``), squared distances.
NeighborRows = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: ``index="auto"`` resolves to the grid backend at or above this node count.
#: Below it the all-pairs matrix is both faster (one einsum beats per-node
#: bucket walks) and what the paper-scale artifacts were recorded with.
GRID_AUTO_NODES = 200


def labels_from_mask(rx: np.ndarray) -> np.ndarray:
    """Connected-component labels from a dense boolean adjacency matrix.

    Vectorized min-label propagation with pointer jumping: each round every
    node adopts the smallest label among itself and its neighbours, then
    compresses one level (``labels[labels]``).  Converges in O(log diameter)
    rounds of O(n^2) vector work — replacing the per-node Python BFS that was
    the last O(n^2)-ish interpreter loop on the ``reachable`` path.

    Labels are the smallest row index in each component; only equality is
    meaningful.
    """
    n = rx.shape[0]
    labels = np.arange(n, dtype=np.intp)
    if n == 0:
        return labels
    sentinel = np.intp(n)
    while True:
        neighbor_min = np.where(rx, labels[None, :], sentinel).min(axis=1)
        new = np.minimum(labels, neighbor_min)
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def labels_from_edges(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Connected-component labels from a (symmetric) edge list.

    Same min-label propagation as :func:`labels_from_mask`, but gathering
    over edge arrays (``numpy.minimum.at``) instead of a dense mask, so the
    grid backend never materialises an n x n matrix.  ``min`` is commutative
    and associative, so the result is independent of edge order.
    """
    labels = np.arange(n, dtype=np.intp)
    if src.size == 0:
        return labels
    while True:
        new = labels.copy()
        np.minimum.at(new, src, labels[dst])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


class AllPairsIndex:
    """Dense squared-distance matrix, refreshed once per quantum."""

    name = "allpairs"

    def __init__(self, n: int, rx_sq: float, cs_sq: float):
        self._rx_sq = rx_sq
        self._cs_sq = cs_sq
        self._sq = np.zeros((n, n))
        self._cs = np.zeros((n, n), dtype=bool)
        self._labels: Optional[np.ndarray] = None

    def refresh(self, positions: np.ndarray, t: float) -> None:
        deltas = positions[:, None, :] - positions[None, :, :]
        sq = np.einsum("ijk,ijk->ij", deltas, deltas)
        self._sq = sq
        cs = sq <= self._cs_sq
        np.fill_diagonal(cs, False)
        self._cs = cs
        self._labels = None

    def neighbor_rows(self, row: int) -> NeighborRows:
        cs_rows = self._cs[row].nonzero()[0]
        sq = self._sq[row][cs_rows]
        return cs_rows, sq <= self._rx_sq, sq

    def sq_dist(self, row_a: int, row_b: int) -> float:
        return float(self._sq[row_a, row_b])

    def component_labels(self) -> np.ndarray:
        if self._labels is None:
            # The diagonal stays set: a node's own label changes no minimum.
            self._labels = labels_from_mask(self._sq <= self._rx_sq)
        return self._labels


class UniformGridIndex:
    """Cell-list index: per-node queries over a 3x3 cell block.

    Parameters
    ----------
    rx_sq, cs_sq:
        Squared decision radii (must satisfy ``rx_sq <= cs_sq``).
    reach:
        The largest metric radius any query uses (the carrier-sense range);
        the base cell edge.
    speed_bound:
        Upper bound on any node's speed (m/s), from the piecewise-linear
        trajectories.  Zero means buckets never go stale (static layouts).
    rebucket_horizon_s:
        How long a bucket assignment may be reused.  The cell edge is
        inflated by ``2 * speed_bound * rebucket_horizon_s`` so reuse stays
        exact (see the module docstring).
    """

    name = "grid"

    def __init__(
        self,
        rx_sq: float,
        cs_sq: float,
        reach: float,
        speed_bound: float = 0.0,
        rebucket_horizon_s: float = 1.0,
    ):
        if reach <= 0.0:
            raise ValueError("reach must be positive")
        if speed_bound < 0.0:
            raise ValueError("speed_bound cannot be negative")
        if rebucket_horizon_s <= 0.0:
            raise ValueError("rebucket_horizon_s must be positive")
        self._rx_sq = rx_sq
        self._cs_sq = cs_sq
        self._max_drift = speed_bound * rebucket_horizon_s
        # A hair of relative slack on the cell edge: queries compare the
        # *rounded* squared distance against the decision radius, so a pair
        # that is infinitesimally farther apart than ``reach`` in exact
        # arithmetic can still compare as in range (e.g. coordinates 1.0
        # and -5.6e-134 with reach 1.0: the true gap exceeds 1.0, but the
        # float64 difference rounds to exactly 1.0).  Widening the edge by
        # ~4500 ulps keeps every such pair inside the 3x3 block; bucket
        # occupancy is unchanged for any realistic layout.
        self._cell = (reach + 2.0 * self._max_drift) * (1.0 + 1e-12)
        self._speed_bound = speed_bound
        self._positions = np.zeros((0, 2))
        self._bucket_time = 0.0
        self._have_buckets = False
        # CSR-style buckets: rows sorted by cell key, per-key slice bounds.
        self._order = np.zeros(0, dtype=np.intp)
        self._occupied = np.zeros(0, dtype=np.int64)  # sorted occupied keys
        self._bounds = np.zeros(1, dtype=np.intp)
        self._keys: List[int] = []  # per-node cell key at bucket time
        self._dims: Tuple[int, int] = (0, 0)
        # Sorted rows of the 3x3 block around each queried cell, by cell key.
        self._blocks: Dict[int, np.ndarray] = {}
        self._labels: Optional[np.ndarray] = None

    # -- bucket maintenance ------------------------------------------------

    def refresh(self, positions: np.ndarray, t: float) -> None:
        self._positions = positions
        self._labels = None
        if self._have_buckets:
            drift = self._speed_bound * abs(t - self._bucket_time)
            if drift <= self._max_drift:
                return  # buckets still cover every in-reach pair
        self._rebucket(positions, t)

    def _rebucket(self, positions: np.ndarray, t: float) -> None:
        cells = np.floor(positions / self._cell).astype(np.int64)
        origin = cells.min(axis=0)
        rel = cells - origin
        dims = rel.max(axis=0) + 1
        keys = rel[:, 0] * dims[1] + rel[:, 1]
        order = np.argsort(keys, kind="stable")
        occupied, starts = np.unique(keys[order], return_index=True)
        self._order = order.astype(np.intp)
        self._occupied = occupied
        self._bounds = np.append(starts, order.shape[0]).astype(np.intp)
        self._keys = keys.tolist()
        self._dims = (int(dims[0]), int(dims[1]))
        self._blocks.clear()
        self._bucket_time = t
        self._have_buckets = True

    def _bucket(self, key: int) -> np.ndarray:
        """Rows in one cell (ascending: the stable argsort preserves row
        order within a key), empty when the cell is unoccupied."""
        slot = int(np.searchsorted(self._occupied, key))
        if slot == self._occupied.shape[0] or self._occupied[slot] != key:
            return self._order[:0]
        return self._order[self._bounds[slot] : self._bounds[slot + 1]]

    def _block_rows(self, key: int) -> np.ndarray:
        """All rows bucketed in the 3x3 block centred on cell ``key``,
        ascending.  Gathered once per cell per rebucket: the block only
        changes when the buckets do, and a stale block is the same widened
        candidate set the drift argument in the module docstring covers."""
        block = self._blocks.get(key)
        if block is None:
            dims_x, dims_y = self._dims
            cx, cy = divmod(key, dims_y)
            chunks = [
                self._bucket(bx * dims_y + by)
                for bx in (cx - 1, cx, cx + 1)
                if 0 <= bx < dims_x
                for by in (cy - 1, cy, cy + 1)
                if 0 <= by < dims_y
            ]
            block = self._blocks[key] = np.sort(np.concatenate(chunks))
        return block

    # -- queries -----------------------------------------------------------

    def neighbor_rows(self, row: int) -> NeighborRows:
        positions = self._positions
        candidates = self._block_rows(self._keys[row])
        deltas = positions[row] - positions.take(candidates, axis=0)
        sq = np.einsum("ij,ij->i", deltas, deltas)
        near = sq <= self._cs_sq
        # The block is per cell, so it holds the querying row itself: mask it
        # out of the result rather than filter it out of the candidates.
        near[np.searchsorted(candidates, row)] = False
        sq = sq[near]
        return candidates[near], sq <= self._rx_sq, sq

    def sq_dist(self, row_a: int, row_b: int) -> float:
        dx = self._positions[row_a, 0] - self._positions[row_b, 0]
        dy = self._positions[row_a, 1] - self._positions[row_b, 1]
        return float(dx * dx + dy * dy)

    def component_labels(self) -> np.ndarray:
        if self._labels is None:
            self._labels = self._compute_labels()
        return self._labels

    def _compute_labels(self) -> np.ndarray:
        """Edge list per occupied cell (numeric key order — deterministic),
        then vectorized min-label propagation."""
        positions = self._positions
        n = positions.shape[0]
        src_chunks: List[np.ndarray] = []
        dst_chunks: List[np.ndarray] = []
        for slot in range(self._occupied.shape[0]):
            members = self._order[self._bounds[slot] : self._bounds[slot + 1]]
            block = self._block_rows(int(self._occupied[slot]))
            deltas = positions[members][:, None, :] - positions[block][None, :, :]
            sq = np.einsum("ijk,ijk->ij", deltas, deltas)
            mask = (sq <= self._rx_sq) & (members[:, None] != block[None, :])
            member_idx, block_idx = np.nonzero(mask)
            if member_idx.shape[0]:
                src_chunks.append(members[member_idx])
                dst_chunks.append(block[block_idx])
        if not src_chunks:
            return np.arange(n, dtype=np.intp)
        return labels_from_edges(
            n, np.concatenate(src_chunks), np.concatenate(dst_chunks)
        )
