"""Unit tests for static layouts and deterministic position helpers."""

import pytest

from repro.mobility.grid import chain_positions, grid_positions
from repro.mobility.static import StaticModel


def test_static_model_positions():
    model = StaticModel([(0.0, 0.0), (100.0, 50.0)])
    assert model.position(0, 0.0) == (0.0, 0.0)
    assert model.position(1, 99.0) == (100.0, 50.0)
    assert model.node_ids == [0, 1]


def test_chain_positions():
    positions = chain_positions(4, 200.0)
    assert positions == [(0.0, 0.0), (200.0, 0.0), (400.0, 0.0), (600.0, 0.0)]


def test_grid_positions():
    positions = grid_positions(2, 3, 100.0)
    assert len(positions) == 6
    assert positions[0] == (0.0, 0.0)
    assert positions[-1] == (200.0, 100.0)


def test_layout_validation():
    with pytest.raises(ValueError):
        chain_positions(0, 10.0)
    with pytest.raises(ValueError):
        chain_positions(3, 0.0)
    with pytest.raises(ValueError):
        grid_positions(0, 3, 10.0)
    with pytest.raises(ValueError):
        grid_positions(2, 2, -5.0)
