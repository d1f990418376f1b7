"""The loss-model interface: probabilistic frame loss inside the disk.

The disk model makes reception binary at exactly ``rx_range``; real radios
(and ns-2 runs with shadowing enabled) see a *grey zone* where frames are
lost with increasing probability.  The one implementation,
:class:`repro.phy.profiles.ProbabilisticReception`, reproduces that:
reception is certain inside ``reliable_fraction * rx_range`` and decays
linearly to ``edge_delivery_probability`` at ``rx_range``.

This matters to the paper's topic because grey-zone losses trigger MAC retry
exhaustion on links that are *sometimes* usable — the noisiest possible
input for route caches — so the robustness benchmarks run the caching
strategies with fading enabled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class LossModel:
    """Interface: decides whether an in-range frame is received."""

    def delivered(self, distance: float, rng: np.random.Generator) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class NoLoss(LossModel):
    """The pure disk model: everything in range is delivered."""

    def delivered(self, distance: float, rng: np.random.Generator) -> bool:
        return True
