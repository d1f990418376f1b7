"""Regression: a lossy channel must not silently invent its own rng.

Before the fix (found by a since-retired global-randomness lint rule),
``Channel`` fell back to ``np.random.default_rng(0)`` — so a grey-zone
simulation wired without an explicit generator drew the *same* fading
pattern for every scenario seed, and seed sweeps understated grey-zone
variance.  The corrected behaviour is pinned here: probabilistic loss
requires an explicitly seeded stream, and identical streams still reproduce
identical delivery sequences.
"""

import pytest

from repro.errors import SimulationError
from repro.mobility.static import StaticModel
from repro.phy.channel import Channel
from repro.phy.profiles import ProbabilisticReception
from repro.phy.neighbors import NeighborCache
from repro.phy.propagation import DiskPropagation
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def _fixture(rng=None, loss_model=None):
    sim = Simulator()
    mobility = StaticModel([(0.0, 0.0), (240.0, 0.0)])  # grey zone at 0.8
    neighbors = NeighborCache(mobility, DiskPropagation())
    return Channel(sim, neighbors, loss_model=loss_model, rng=rng)


def test_lossy_channel_without_rng_is_rejected():
    with pytest.raises(SimulationError, match="explicit rng"):
        _fixture(loss_model=ProbabilisticReception(rx_range=250.0, reliable_fraction=0.8))


def test_lossless_channel_needs_no_rng():
    channel = _fixture()
    assert channel is not None


def test_identical_streams_reproduce_identical_fading():
    from repro.mac.frames import Frame, FrameKind
    from repro.phy.radio import Radio

    def run(seed: int):
        sim = Simulator()
        mobility = StaticModel([(0.0, 0.0), (240.0, 0.0)])
        neighbors = NeighborCache(mobility, DiskPropagation())
        channel = Channel(
            sim,
            neighbors,
            loss_model=ProbabilisticReception(rx_range=250.0, reliable_fraction=0.8),
            rng=RandomStreams(seed).stream("fading"),
        )
        sender = Radio(0, channel)
        receiver = Radio(1, channel)

        received = []

        class RecordingMac:
            def __init__(self, sink):
                self.sink = sink

            def on_frame(self, frame):
                self.sink.append(frame)

            def on_medium_change(self):
                pass

            def on_tx_complete(self, frame):
                pass

        sender.mac = RecordingMac([])
        receiver.mac = RecordingMac(received)
        for i in range(100):
            sim.schedule(i * 0.01, sender.transmit, Frame(FrameKind.DATA, 0, 1), 0.001)
        sim.run()
        return len(received)

    first, second = run(7), run(7)
    assert first == second  # same seed, same fading draws
    assert 0 < first < 100  # the grey zone actually drops frames
