"""A mobility model for networks that do not move."""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.mobility.base import MobilityModel
from repro.mobility.trajectory import Trajectory


class StaticModel(MobilityModel):
    """Fixed node positions — handy for unit tests and topology studies."""

    def __init__(self, positions: Sequence[Tuple[float, float]]):
        trajectories: Dict[int, Trajectory] = {
            node_id: Trajectory.stationary(x, y)
            for node_id, (x, y) in enumerate(positions)
        }
        super().__init__(trajectories)
        self._static_positions: Optional[np.ndarray] = None

    def positions(self, t: float) -> np.ndarray:
        """Time-independent fast path: the layout never changes, so the
        batched query is a cached-array copy instead of segment evaluation."""
        if self._static_positions is None:
            self._static_positions = np.array(
                [self.position(node_id, 0.0) for node_id in self.node_ids],
                dtype=np.float64,
            ).reshape(-1, 2)
        return self._static_positions.copy()
