"""Unit tests for the quantised neighbour cache."""

import numpy as np

from repro.mobility.static import StaticModel
from repro.mobility.waypoint import RandomWaypointModel
from repro.phy.neighbors import NeighborCache
from repro.phy.propagation import DiskPropagation


def _static_cache():
    model = StaticModel([(0.0, 0.0), (200.0, 0.0), (400.0, 0.0), (900.0, 0.0)])
    return NeighborCache(model, DiskPropagation(rx_range=250.0, cs_range=550.0))


def test_rx_neighbors_respect_range():
    cache = _static_cache()
    assert cache.rx_neighbors(0, 0.0) == [1]
    assert sorted(cache.rx_neighbors(1, 0.0)) == [0, 2]
    assert cache.rx_neighbors(3, 0.0) == []


def test_cs_neighbors_are_superset_of_rx():
    cache = _static_cache()
    assert sorted(cache.cs_neighbors(0, 0.0)) == [1, 2]  # 400 m sensed, not decoded
    assert set(cache.rx_neighbors(0, 0.0)) <= set(cache.cs_neighbors(0, 0.0))


def test_connected_and_distance():
    cache = _static_cache()
    assert cache.connected(0, 1, 0.0)
    assert not cache.connected(0, 2, 0.0)
    assert cache.connected(2, 2, 0.0)  # reflexive by definition
    assert cache.distance(0, 2, 0.0) == 400.0


def test_route_valid_ground_truth():
    cache = _static_cache()
    assert cache.route_valid([0, 1, 2], 0.0)
    assert not cache.route_valid([0, 2], 0.0)
    assert not cache.route_valid([0, 1, 3], 0.0)
    assert cache.route_valid([2], 0.0)  # trivially valid


def test_cache_tracks_movement_between_quanta():
    """A node crossing the range boundary changes the neighbour sets."""
    from repro.mobility.trajectory import Segment, Trajectory
    from repro.mobility.base import MobilityModel

    trajectories = {
        0: Trajectory.stationary(0.0, 0.0),
        1: Trajectory([Segment(t0=0.0, x0=200.0, y0=0.0, vx=50.0, vy=0.0)]),
    }
    mobility = MobilityModel(trajectories)
    cache = NeighborCache(mobility, DiskPropagation(), quantum=0.05)
    assert cache.connected(0, 1, 0.0)  # 200 m apart
    assert not cache.connected(0, 1, 2.0)  # 300 m apart


def test_quantisation_error_is_negligible():
    """Compare cached connectivity to exact connectivity over a mobile run:
    disagreements can only occur within a quantum of a boundary crossing."""
    model = RandomWaypointModel(
        num_nodes=8,
        width=600.0,
        height=300.0,
        duration=30.0,
        rng=np.random.default_rng(5),
    )
    propagation = DiskPropagation()
    cache = NeighborCache(model, propagation, quantum=0.05)
    checks = disagreements = 0
    for t in np.linspace(0.0, 30.0, 301):
        for a in range(8):
            for b in range(a + 1, 8):
                exact = model.distance(a, b, float(t)) <= 250.0
                cached = cache.connected(a, b, float(t))
                checks += 1
                if exact != cached:
                    # Any disagreement must be a borderline pair.
                    assert abs(model.distance(a, b, float(t)) - 250.0) < 2.5
                    disagreements += 1
    assert disagreements / checks < 0.01


def test_lazy_lists_match_exact_recomputation_across_quanta():
    """The memoised per-quantum lists must equal a from-scratch distance
    scan at the quantum's sample instant — including after the cache rolls
    over a quantum boundary and the memos are invalidated."""
    model = RandomWaypointModel(
        num_nodes=10,
        width=700.0,
        height=350.0,
        duration=10.0,
        rng=np.random.default_rng(9),
    )
    propagation = DiskPropagation(rx_range=250.0, cs_range=550.0)
    quantum = 0.05
    cache = NeighborCache(model, propagation, quantum=quantum)
    for t in (0.0, 0.01, 0.049, 0.05, 0.07, 1.0, 1.02, 9.99):
        sample_time = int(t / quantum) * quantum
        positions = {i: model.position(i, sample_time) for i in model.node_ids}
        for a in model.node_ids:
            exact_rx, exact_cs = [], []
            for b in model.node_ids:
                if a == b:
                    continue
                ax, ay = positions[a]
                bx, by = positions[b]
                distance = ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5
                if distance <= 250.0:
                    exact_rx.append(b)
                if distance <= 550.0:
                    exact_cs.append(b)
            assert cache.rx_neighbors(a, t) == exact_rx
            assert cache.cs_neighbors(a, t) == exact_cs


def test_lazy_lists_are_memoised_within_a_quantum():
    cache = _static_cache()
    assert cache.rx_neighbors(1, 0.0) is cache.rx_neighbors(1, 0.01)
    assert cache.cs_neighbors(1, 0.0) is cache.cs_neighbors(1, 0.02)
    # A quantum boundary invalidates the memo (fresh objects, same content).
    first = cache.rx_neighbors(1, 0.0)
    again = cache.rx_neighbors(1, 1.0)
    assert first is not again and first == again


def test_tick_tracks_quantum_boundaries():
    cache = _static_cache()
    t0 = cache.tick(0.0)
    assert cache.tick(0.049) == t0  # same 50 ms quantum
    assert cache.tick(0.05) == t0 + 1
    assert cache.tick(12.34) == int(12.34 / 0.05)


def test_route_valid_matches_per_hop_connectivity():
    model = RandomWaypointModel(
        num_nodes=6,
        width=500.0,
        height=500.0,
        duration=20.0,
        rng=np.random.default_rng(13),
    )
    cache = NeighborCache(model, DiskPropagation())
    rng = np.random.default_rng(99)
    for t in np.linspace(0.0, 20.0, 41):
        t = float(t)
        route = [int(n) for n in rng.permutation(6)[: int(rng.integers(2, 6))]]
        per_hop = all(
            cache.connected(a, b, t) for a, b in zip(route, route[1:])
        )
        assert cache.route_valid(route, t) == per_hop
