"""The one-shot seed of :mod:`repro.sim.rng`'s streams, apart from it: importing
``numpy.random`` costs ~6 MiB, which a process making no stream never pays."""

from typing import Any

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class OneShotSeed(ISeedSequence):
    """Seeds one bit generator, then lets its SeedSequence go."""

    def __init__(self, seq: np.random.SeedSequence) -> None:
        self._seq = seq

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
        state = self._seq.generate_state(n_words, dtype)
        del self._seq
        return state
