"""Deterministic, named random-number streams.

The paper's methodology requires that *identical mobility and traffic
scenarios are used across all protocol variations*.  We achieve that by
deriving every stochastic component's generator from a single root seed and a
stable component name: ``streams.stream("mobility")`` yields the same
generator sequence no matter which protocol variant runs, or in which order
streams are requested.
"""

from __future__ import annotations

import zlib

import numpy as np


class RandomStreams:
    """A factory of independent, reproducible ``numpy`` generators.

    Each stream is keyed by one or more names; the key is hashed into the
    ``spawn_key`` of a :class:`numpy.random.SeedSequence`, so distinct names
    give statistically independent streams while identical ``(seed, names)``
    pairs always give identical streams.

    Example
    -------
    >>> a = RandomStreams(7).stream("mobility")
    >>> b = RandomStreams(7).stream("mobility")
    >>> float(a.random()) == float(b.random())
    True
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def stream(self, *names: str) -> np.random.Generator:
        """Return a fresh generator for the given component name(s)."""
        if not names:
            raise ValueError("at least one stream name is required")
        key = tuple(zlib.crc32(name.encode("utf-8")) for name in names)
        from repro.sim.seeding import OneShotSeed  # imports numpy.random
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=key)
        return np.random.Generator(np.random.PCG64(OneShotSeed(seq)))

    def child(self, name: str) -> "RandomStreams":
        """Derive a namespaced sub-factory (e.g. one per node)."""
        derived = zlib.crc32(name.encode("utf-8")) ^ (self.seed & 0xFFFFFFFF)
        return RandomStreams((self.seed << 16) ^ derived)
