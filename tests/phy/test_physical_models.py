"""Unit tests for physical propagation parameterisations and edge loss."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.profiles import ProbabilisticReception
from repro.phy.propagation import (
    friis_cross_over_distance,
    log_distance_range,
    two_ray_ground_range,
)

from tests.helpers import lone_sender_deliveries


def _deliveries(distance, frames, loss_model, seed=9):
    rng = None if loss_model is None else np.random.default_rng(seed)
    return lone_sender_deliveries([distance], loss_model, rng, frames=frames)[0]


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
    """``loss_model=None`` is the lossless channel: every frame in range
    arrives, right up to the edge of the cell."""
    for distance in (0.0, 100.0, 249.0):
        assert _deliveries(distance, frames=50, loss_model=None) == 50


def test_edge_loss_probability_shape():
    model = ProbabilisticReception(rx_range=250.0, reliable_fraction=0.8)
    assert model.delivery_probability(100.0) == 1.0
    assert model.delivery_probability(200.0) == 1.0  # edge of reliable zone
    assert model.delivery_probability(225.0) == pytest.approx(0.5)
    assert model.delivery_probability(250.0) == 0.0
    assert model.delivery_probability(300.0) == 0.0


def test_edge_loss_sampling_matches_probability():
    model = ProbabilisticReception(rx_range=250.0, reliable_fraction=0.8)
    delivered = _deliveries(225.0, frames=4000, loss_model=model, seed=1)
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
    model = ProbabilisticReception(rx_range=250.0, reliable_fraction=0.8)
    received = {d: _deliveries(d, frames=200, loss_model=model) for d in (100.0, 240.0)}
    assert received[100.0] == 200  # reliable zone: no loss
    assert 0 < received[240.0] < 200  # grey zone: partial loss
