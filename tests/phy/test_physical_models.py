"""Unit tests for physical propagation parameterisations and edge loss."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.fading import NoLoss
from repro.phy.profiles import ProbabilisticReception
from repro.phy.propagation import (
    friis_cross_over_distance,
    log_distance_range,
    two_ray_ground_range,
)


def test_two_ray_defaults_give_wavelan_250m():
    """The classic ns-2 WaveLAN parameters must yield the famous 250 m."""
    assert two_ray_ground_range() == pytest.approx(250.0, abs=1.0)


def test_two_ray_range_scales_with_power():
    """Pr ~ Pt / d^4  =>  doubling range needs 16x power."""
    base = two_ray_ground_range(tx_power_w=0.2818)
    boosted = two_ray_ground_range(tx_power_w=0.2818 * 16)
    assert boosted == pytest.approx(2 * base, rel=0.01)


def test_two_ray_falls_back_to_friis_inside_crossover():
    # A very insensitive receiver puts the solution inside the cross-over.
    short = two_ray_ground_range(rx_threshold_w=1e-3)
    assert 0 < short < friis_cross_over_distance(914e6)


def test_two_ray_validation():
    with pytest.raises(ConfigurationError):
        two_ray_ground_range(tx_power_w=0.0)


def test_log_distance_monotone_in_exponent():
    """A harsher environment (bigger n) shrinks the range."""
    open_field = log_distance_range(path_loss_exponent=2.0)
    urban = log_distance_range(path_loss_exponent=3.5)
    assert urban < open_field


def test_log_distance_validation():
    with pytest.raises(ConfigurationError):
        log_distance_range(path_loss_exponent=0.0)


def test_no_loss_always_delivers():
    model = NoLoss()
    rng = np.random.default_rng(0)
    assert all(model.delivered(d, rng) for d in (0.0, 100.0, 250.0))


def test_edge_loss_probability_shape():
    model = ProbabilisticReception(rx_range=250.0, reliable_fraction=0.8)
    assert model.delivery_probability(100.0) == 1.0
    assert model.delivery_probability(200.0) == 1.0  # edge of reliable zone
    assert model.delivery_probability(225.0) == pytest.approx(0.5)
    assert model.delivery_probability(250.0) == 0.0
    assert model.delivery_probability(300.0) == 0.0


def test_edge_loss_sampling_matches_probability():
    model = ProbabilisticReception(rx_range=250.0, reliable_fraction=0.8)
    rng = np.random.default_rng(1)
    delivered = sum(model.delivered(225.0, rng) for _ in range(4000))
    assert 0.45 < delivered / 4000 < 0.55


def test_edge_loss_floor_probability():
    model = ProbabilisticReception(
        rx_range=250.0, reliable_fraction=0.8, edge_delivery_probability=0.4
    )
    assert model.delivery_probability(250.0) == pytest.approx(0.4)
    assert model.delivery_probability(225.0) == pytest.approx(0.7)


def test_edge_loss_validation():
    with pytest.raises(ConfigurationError):
        ProbabilisticReception(rx_range=0.0)
    with pytest.raises(ConfigurationError):
        ProbabilisticReception(rx_range=250.0, reliable_fraction=1.5)
    with pytest.raises(ConfigurationError):
        ProbabilisticReception(rx_range=250.0, edge_delivery_probability=-0.1)


def test_lossy_channel_drops_grey_zone_frames():
    """End to end: a link in the grey zone loses frames; a link in the
    reliable zone does not."""
    from repro.mac.frames import Frame, FrameKind
    from repro.mobility.static import StaticModel
    from repro.phy.channel import Channel
    from repro.phy.neighbors import NeighborCache
    from repro.phy.propagation import DiskPropagation
    from repro.phy.radio import Radio
    from repro.sim.engine import Simulator

    class CountingMac:
        def __init__(self):
            self.frames = 0

        def on_frame(self, frame):
            self.frames += 1

        def on_tx_complete(self, frame):
            pass

        def on_medium_change(self):
            pass

    received = {}
    for distance in (100.0, 240.0):
        sim = Simulator()
        mobility = StaticModel([(0.0, 0.0), (distance, 0.0)])
        neighbors = NeighborCache(mobility, DiskPropagation())
        channel = Channel(
            sim,
            neighbors,
            loss_model=ProbabilisticReception(rx_range=250.0, reliable_fraction=0.8),
            rng=np.random.default_rng(9),
        )
        sender = Radio(0, channel)
        receiver = Radio(1, channel)
        sender.mac = CountingMac()
        mac = CountingMac()
        receiver.mac = mac
        for i in range(200):
            sim.schedule(i * 0.01, sender.transmit, Frame(FrameKind.DATA, 0, 1), 0.001)
        sim.run()
        received[distance] = mac.frames
    assert received[100.0] == 200  # reliable zone: no loss
    assert 0 < received[240.0] < 200  # grey zone: partial loss
