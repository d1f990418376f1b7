"""Unit tests for the propagation model."""

import pytest

from repro.errors import ConfigurationError
from repro.mobility.static import StaticModel
from repro.phy.neighbors import NeighborCache
from repro.phy.propagation import DiskPropagation


def test_defaults_match_wavelan():
    propagation = DiskPropagation()
    assert propagation.rx_range == 250.0
    assert propagation.cs_range == 550.0


def _neighbors_of_origin(*positions):
    """Node 0 at the origin, the rest at ``positions``, as the channel's
    neighbour cache sees them."""
    model = StaticModel([(0.0, 0.0), *positions])
    cache = NeighborCache(model, DiskPropagation(rx_range=250.0, cs_range=550.0))
    return cache.rx_neighbors(0, 0.0), cache.cs_neighbors(0, 0.0)


def test_reception_boundary():
    rx, _cs = _neighbors_of_origin((249.9, 0.0), (0.0, 250.0), (-250.1, 0.0))
    assert rx == [1, 2]


def test_sense_boundary():
    rx, cs = _neighbors_of_origin((550.0, 0.0), (0.0, -550.1), (100.0, 0.0))
    assert cs == [1, 3]
    # Everything receivable is also sensed.
    assert rx == [3]


def test_invalid_configuration():
    with pytest.raises(ConfigurationError):
        DiskPropagation(rx_range=0.0)
    with pytest.raises(ConfigurationError):
        DiskPropagation(rx_range=250.0, cs_range=100.0)
