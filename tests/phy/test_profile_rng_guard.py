"""Seeded-rng guard for the profile loss models.

Same contract as ``tests/phy/test_channel_rng_guard.py``, for the
probabilistic-reception channel the radio profiles build: a lossy channel
must refuse to run without an explicitly seeded stream, and identical
streams must reproduce identical delivery sequences — including with
capture enabled, whose decision is geometric and must not consume draws.
"""

import pytest

from repro.errors import SimulationError
from repro.mac.frames import Frame, FrameKind
from repro.mobility.static import StaticModel
from repro.phy.channel import Channel
from repro.phy.neighbors import NeighborCache
from repro.phy.profiles import CaptureModel, ProbabilisticReception
from repro.phy.propagation import DiskPropagation
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


class RecordingMac:
    def __init__(self):
        self.frames = []

    def on_frame(self, frame):
        self.frames.append(frame)

    def on_medium_change(self):
        pass

    def on_tx_complete(self, frame):
        pass


def test_probabilistic_reception_without_rng_is_rejected():
    sim = Simulator()
    mobility = StaticModel([(0.0, 0.0), (240.0, 0.0)])
    neighbors = NeighborCache(mobility, DiskPropagation())
    with pytest.raises(SimulationError, match="explicit rng"):
        Channel(
            sim,
            neighbors,
            loss_model=ProbabilisticReception(rx_range=250.0, base_delivery=0.7),
        )


def _run(seed: int, capture=None) -> int:
    sim = Simulator()
    mobility = StaticModel([(0.0, 0.0), (240.0, 0.0)])
    neighbors = NeighborCache(mobility, DiskPropagation())
    channel = Channel(
        sim,
        neighbors,
        loss_model=ProbabilisticReception(
            rx_range=250.0,
            reliable_fraction=0.8,
            edge_delivery_probability=0.2,
            base_delivery=0.9,
        ),
        rng=RandomStreams(seed).stream("fading"),
        capture=capture,
    )
    sender = Radio(0, channel)
    receiver = Radio(1, channel)
    sender.mac = RecordingMac()
    receiver.mac = RecordingMac()
    for i in range(200):
        sim.schedule(i * 0.01, sender.transmit, Frame(FrameKind.DATA, 0, 1), 0.001)
    sim.run()
    return len(receiver.mac.frames)


def test_identical_streams_reproduce_identical_deliveries():
    first, second = _run(11), _run(11)
    assert first == second
    assert 0 < first < 200  # the loss model actually drops frames


def test_different_seeds_draw_different_fading():
    assert len({_run(seed) for seed in range(8)}) > 1


def test_capture_path_preserves_the_draw_sequence():
    # Capture must not add or remove rng draws: with a single sender there
    # are no collisions, so delivery counts match the no-capture run draw
    # for draw.
    capture = CaptureModel(threshold_db=10.0)
    assert _run(23, capture=capture) == _run(23, capture=None)
