"""Property-based grid-vs-all-pairs equivalence over arbitrary layouts.

Hypothesis drives the spatial-index contract harder than the hand-picked
adversarial cases: arbitrary float coordinates (including negative,
clustered and widely-spread values), arbitrary ranges, and arbitrary probe
times on mobile layouts.  The invariant is always exact equality — neighbour
lists, order included, plus the derived oracles.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.static import StaticModel
from repro.mobility.waypoint import RandomWaypointModel
from repro.phy.neighbors import NeighborCache
from repro.phy.propagation import DiskPropagation

coordinate = st.floats(
    min_value=-50_000.0, max_value=50_000.0, allow_nan=False, allow_infinity=False
)
point = st.tuples(coordinate, coordinate)


def _caches(model_factory, rx_range, cs_range, quantum=0.05):
    propagation = DiskPropagation(rx_range=rx_range, cs_range=cs_range)
    return (
        NeighborCache(model_factory(), propagation, quantum=quantum, index="allpairs"),
        NeighborCache(model_factory(), propagation, quantum=quantum, index="grid"),
    )


def _check_all_nodes(allpairs, grid, n, t):
    for node_id in range(n):
        assert allpairs.rx_neighbors(node_id, t) == grid.rx_neighbors(node_id, t)
        assert allpairs.cs_neighbors(node_id, t) == grid.cs_neighbors(node_id, t)
    for a in range(n):
        for b in range(n):
            assert allpairs.connected(a, b, t) == grid.connected(a, b, t)
            assert allpairs.reachable(a, b, t) == grid.reachable(a, b, t)
    for b in range(n):
        assert allpairs.distance(0, b, t) == grid.distance(0, b, t)
    route = list(range(n))
    assert allpairs.route_valid(route, t) == grid.route_valid(route, t)


@given(
    positions=st.lists(point, min_size=2, max_size=24),
    rx_range=st.floats(min_value=1.0, max_value=2_000.0, allow_nan=False),
    cs_factor=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_static_layouts_are_backend_equivalent(positions, rx_range, cs_factor):
    allpairs, grid = _caches(
        lambda: StaticModel(positions), rx_range, rx_range * cs_factor
    )
    _check_all_nodes(allpairs, grid, len(positions), 0.0)


@given(
    base=point,
    duplicates=st.integers(min_value=2, max_value=6),
    extras=st.lists(point, min_size=0, max_size=8),
)
@settings(max_examples=25, deadline=None)
def test_coincident_clusters_are_backend_equivalent(base, duplicates, extras):
    """Stacked nodes (distance 0, shared cells) plus arbitrary bystanders."""
    positions = [base] * duplicates + extras
    allpairs, grid = _caches(lambda: StaticModel(positions), 250.0, 550.0)
    _check_all_nodes(allpairs, grid, len(positions), 0.0)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    probes=st.lists(
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=20, deadline=None)
def test_mobile_layouts_are_backend_equivalent(seed, probes):
    """Random waypoint runs probed at arbitrary (unsorted) times: bucket
    reuse, rebucketing and backwards queries all preserve equivalence."""

    def factory():
        return RandomWaypointModel(
            num_nodes=15,
            width=1500.0,
            height=500.0,
            duration=30.0,
            rng=np.random.default_rng(seed),
            max_speed=20.0,
            pause_time=0.0,
        )

    allpairs, grid = _caches(factory, 250.0, 550.0)
    for t in probes:
        _check_all_nodes(allpairs, grid, 15, float(t))
