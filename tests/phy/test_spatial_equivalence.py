"""Grid-index vs all-pairs equivalence: the backends must agree exactly.

The contract from :mod:`repro.phy.spatial` is not "approximately the same
neighbours" but *decision equivalence*: identical neighbour lists in
identical order, identical connectivity/reachability/route-validity
verdicts, and bit-identical distances.  These tests drive both backends
through the same layouts — random mobile runs and adversarial static ones
(cell-boundary, coincident, far out-of-area coordinates) — and require
exact agreement everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mobility.base import MobilityModel
from repro.mobility.static import StaticModel
from repro.mobility.trajectory import Segment, Trajectory
from repro.mobility.waypoint import RandomWaypointModel
from repro.phy.neighbors import NeighborCache
from repro.phy.propagation import DiskPropagation
from repro.phy.spatial import GRID_AUTO_NODES, labels_from_edges, labels_from_mask

PROPAGATION = DiskPropagation(rx_range=250.0, cs_range=550.0)


def _pair(model_factory, quantum=0.05):
    """The same layout behind an all-pairs and a grid cache."""
    return (
        NeighborCache(model_factory(), PROPAGATION, quantum=quantum, index="allpairs"),
        NeighborCache(model_factory(), PROPAGATION, quantum=quantum, index="grid"),
    )


def _assert_equivalent_at(allpairs, grid, node_ids, t, rng):
    for node_id in node_ids:
        assert allpairs.rx_neighbors(node_id, t) == grid.rx_neighbors(node_id, t)
        assert allpairs.cs_neighbors(node_id, t) == grid.cs_neighbors(node_id, t)
    for _ in range(len(node_ids)):
        a = int(rng.choice(node_ids))
        b = int(rng.choice(node_ids))
        assert allpairs.connected(a, b, t) == grid.connected(a, b, t)
        assert allpairs.reachable(a, b, t) == grid.reachable(a, b, t)
        assert allpairs.distance(a, b, t) == grid.distance(a, b, t)
    others = [int(x) for x in rng.choice(node_ids, size=min(8, len(node_ids)))]
    probe = int(rng.choice(node_ids))
    assert [allpairs.distance(probe, o, t) for o in others] == [
        grid.distance(probe, o, t) for o in others
    ]
    route = [int(x) for x in rng.permutation(node_ids)[: min(6, len(node_ids))]]
    assert allpairs.route_valid(route, t) == grid.route_valid(route, t)


def _assert_static_equivalent(positions):
    allpairs, grid = _pair(lambda: StaticModel(positions))
    rng = np.random.default_rng(17)
    _assert_equivalent_at(allpairs, grid, list(range(len(positions))), 0.0, rng)


# -- adversarial static layouts ---------------------------------------------


def test_cell_boundary_positions():
    """Nodes sitting exactly on cell edges (multiples of the 550 m carrier
    sense range, i.e. the grid's cell size) and exactly at the decision radii."""
    positions = [
        (0.0, 0.0),
        (550.0, 0.0),  # exactly one cell over
        (550.0, 550.0),
        (1100.0, 0.0),  # exactly two cells over: sensed by nobody at (0, 0)
        (250.0, 0.0),  # exactly rx_range from the origin
        (250.0 + 5e-13, 0.0),  # just beyond (float-representable)
        (-550.0, -550.0),  # negative cell coordinates
        (549.9999999999999, 0.0),
    ]
    _assert_static_equivalent(positions)


def test_coincident_nodes():
    """Multiple nodes at identical coordinates (zero distances)."""
    positions = [(100.0, 100.0)] * 4 + [(100.0, 350.0), (100.0, 350.0), (900.0, 100.0)]
    _assert_static_equivalent(positions)


def test_rounded_distance_exactly_at_reach_across_a_cell_seam():
    """Hypothesis-found: a node at -5.6e-134 floors into cell -1 while its
    partner at 1.0 sits in cell 1 — two cells apart — yet their float64
    distance rounds to exactly the decision radius, so all-pairs counts
    the pair as in range.  The grid's slightly widened cell edge must keep
    such pairs inside the 3x3 block."""
    propagation = DiskPropagation(rx_range=1.0, cs_range=1.0)
    positions = [(0.0, 1.0), (0.0, -5.608999621580105e-134)]
    allpairs, grid = (
        NeighborCache(StaticModel(positions), propagation, quantum=0.05, index=name)
        for name in ("allpairs", "grid")
    )
    for node_id in (0, 1):
        assert allpairs.rx_neighbors(node_id, 0.0) == grid.rx_neighbors(node_id, 0.0)
        assert allpairs.cs_neighbors(node_id, 0.0) == grid.cs_neighbors(node_id, 0.0)
    assert grid.rx_neighbors(0, 0.0) == [1]  # the rounded distance is in range


def test_far_out_of_area_nodes():
    """Outliers far outside the nominal field stretch the grid's bounding
    box without distorting in-field answers."""
    positions = [
        (0.0, 0.0),
        (200.0, 0.0),
        (400.0, 100.0),
        (1e6, 1e6),
        (-1e6, 5e5),
        (1e6 + 100.0, 1e6),  # neighbour of the first outlier
    ]
    _assert_static_equivalent(positions)


def test_single_row_and_column_layouts():
    """Degenerate bounding boxes: all nodes in one grid row / one column."""
    _assert_static_equivalent([(float(x), 0.0) for x in range(0, 3000, 260)])
    _assert_static_equivalent([(0.0, float(y)) for y in range(0, 3000, 260)])


def test_two_node_minimum():
    _assert_static_equivalent([(0.0, 0.0), (249.0, 0.0)])
    _assert_static_equivalent([(0.0, 0.0), (5000.0, 0.0)])


# -- random layouts ----------------------------------------------------------


def test_random_static_layouts_agree():
    rng = np.random.default_rng(23)
    for trial in range(10):
        n = int(rng.integers(2, 60))
        scale = float(rng.choice([300.0, 1500.0, 6000.0]))
        positions = [tuple(p) for p in rng.uniform(-scale, scale, size=(n, 2))]
        _assert_static_equivalent(positions)


def test_mobile_run_agrees_across_quanta():
    """A full mobile run: bucket reuse and rebucketing must never change
    answers while nodes drift across cell boundaries."""

    def factory():
        return RandomWaypointModel(
            num_nodes=40,
            width=2200.0,
            height=600.0,
            duration=30.0,
            rng=np.random.default_rng(11),
            max_speed=20.0,
            pause_time=0.0,
        )

    allpairs, grid = _pair(factory)
    rng = np.random.default_rng(29)
    for t in np.arange(0.0, 30.0, 0.83):
        assert allpairs.tick(float(t)) == grid.tick(float(t))
        _assert_equivalent_at(allpairs, grid, list(range(40)), float(t), rng)


def test_fast_mover_crossing_cells():
    """One deliberately fast node sweeping the whole strip forces frequent
    rebucketing (speed bound 200 m/s -> 20 m of drift per 100 ms)."""

    def factory():
        trajectories = {
            0: Trajectory.stationary(0.0, 0.0),
            1: Trajectory.stationary(540.0, 0.0),
            2: Trajectory([Segment(t0=0.0, x0=-2000.0, y0=10.0, vx=200.0, vy=0.0)]),
            3: Trajectory.stationary(1100.0, 0.0),
        }
        return MobilityModel(trajectories)

    allpairs, grid = _pair(factory)
    rng = np.random.default_rng(31)
    for t in np.arange(0.0, 20.0, 0.05):
        _assert_equivalent_at(allpairs, grid, [0, 1, 2, 3], float(t), rng)


# -- non-default ranges (radio profiles) --------------------------------------

# The grid derives its cell pitch from the propagation's carrier-sense
# range; nothing in the equivalence contract may assume WaveLAN's 250/550 m.
# Three regimes: short-range high-density (urban's disk), a kilometre-scale
# sparse disk, and an asymmetric rx << cs split.
NON_WAVELAN_PROPAGATIONS = [
    DiskPropagation(rx_range=120.0, cs_range=264.0),
    DiskPropagation(rx_range=1200.0, cs_range=2640.0),
    DiskPropagation(rx_range=60.0, cs_range=600.0),
]


@pytest.mark.parametrize(
    "propagation",
    NON_WAVELAN_PROPAGATIONS,
    ids=lambda p: f"rx{p.rx_range:g}-cs{p.cs_range:g}",
)
def test_non_default_range_static_equivalence(propagation):
    """Cell-seam and decision-radius layouts scaled to the profile's own
    ranges — the adversarial cases of test_cell_boundary_positions, minus
    the hard-coded 250/550 m."""
    cell = propagation.cs_range
    rx = propagation.rx_range
    positions = [
        (0.0, 0.0),
        (cell, 0.0),  # exactly one cell over
        (cell, cell),
        (2 * cell, 0.0),  # two cells: sensed by nobody at the origin
        (rx, 0.0),  # exactly at the receive radius
        (np.nextafter(rx, np.inf), 0.0),  # just beyond
        (-cell, -cell),
        (np.nextafter(cell, 0.0), 0.0),
    ]
    allpairs = NeighborCache(StaticModel(positions), propagation, index="allpairs")
    grid = NeighborCache(StaticModel(positions), propagation, index="grid")
    rng = np.random.default_rng(19)
    _assert_equivalent_at(allpairs, grid, list(range(len(positions))), 0.0, rng)


@pytest.mark.parametrize(
    "propagation",
    NON_WAVELAN_PROPAGATIONS,
    ids=lambda p: f"rx{p.rx_range:g}-cs{p.cs_range:g}",
)
def test_non_default_range_mobile_equivalence(propagation):
    """A mobile run on a field sized ~6 cells across, so bucket reuse and
    rebucketing both trigger at every pitch."""

    def factory():
        return RandomWaypointModel(
            num_nodes=24,
            width=6.0 * propagation.cs_range,
            height=2.0 * propagation.cs_range,
            duration=12.0,
            rng=np.random.default_rng(13),
            max_speed=20.0,
            pause_time=0.0,
        )

    allpairs = NeighborCache(factory(), propagation, index="allpairs")
    grid = NeighborCache(factory(), propagation, index="grid")
    rng = np.random.default_rng(37)
    for t in np.arange(0.0, 12.0, 0.61):
        assert allpairs.tick(float(t)) == grid.tick(float(t))
        _assert_equivalent_at(allpairs, grid, list(range(24)), float(t), rng)


def test_profile_ranges_flow_into_the_grid_pitch():
    """End to end: a non-wavelan profile's carrier-sense range must reach
    the spatial index through the builder, not stay at 550 m."""
    from repro.phy.profiles import get_profile
    from repro.scenarios.builder import build_simulation
    from repro.scenarios.presets import tiny_scenario

    config = tiny_scenario().but(
        radio_profile="urban", duration=1.0, neighbor_index="grid"
    )
    handle = build_simulation(config)
    urban = get_profile("urban")
    assert handle.neighbors.propagation.rx_range == urban.rx_range
    assert handle.neighbors.propagation.cs_range == urban.cs_range


# -- selection & API ---------------------------------------------------------


def test_auto_selects_by_node_count():
    small = NeighborCache(StaticModel([(0.0, 0.0)] * 10), PROPAGATION)
    assert small.index == "allpairs"
    big = NeighborCache(
        StaticModel([(float(i), 0.0) for i in range(GRID_AUTO_NODES)]), PROPAGATION
    )
    assert big.index == "grid"


def test_explicit_override_beats_auto():
    model = StaticModel([(0.0, 0.0), (100.0, 0.0)])
    assert NeighborCache(model, PROPAGATION, index="grid").index == "grid"
    big = StaticModel([(float(i), 0.0) for i in range(GRID_AUTO_NODES)])
    assert NeighborCache(big, PROPAGATION, index="allpairs").index == "allpairs"


def test_unknown_index_rejected():
    model = StaticModel([(0.0, 0.0), (100.0, 0.0)])
    with pytest.raises(ValueError):
        NeighborCache(model, PROPAGATION, index="kd-tree")


def test_distances_batch_matches_scalar():
    model = RandomWaypointModel(
        num_nodes=12,
        width=900.0,
        height=400.0,
        duration=10.0,
        rng=np.random.default_rng(41),
    )
    # The channel takes one vectorized sqrt of a sender's squared listener
    # distances; each element must equal the scalar distance.
    for index in ("allpairs", "grid"):
        cache = NeighborCache(model, PROPAGATION, index=index)
        cs_rows, _in_rx, sq = cache.listeners(0, 4.0)
        assert len(cs_rows) > 1
        for value, row in zip(np.sqrt(sq), cs_rows):
            assert float(value) == cache.distance(0, cache.node_ids[row], 4.0)


def test_speed_bound_matches_trajectories():
    static = StaticModel([(0.0, 0.0), (10.0, 0.0)])
    assert static.speed_bound() == 0.0
    mover = MobilityModel(
        {
            0: Trajectory.stationary(0.0, 0.0),
            1: Trajectory([Segment(t0=0.0, x0=0.0, y0=0.0, vx=3.0, vy=4.0)]),
        }
    )
    assert mover.speed_bound() == pytest.approx(5.0)


# -- component labelling ------------------------------------------------------


def test_label_propagation_matches_reference_bfs():
    """Both vectorized labelers agree with a plain BFS on random graphs."""
    rng = np.random.default_rng(53)
    for _ in range(25):
        n = int(rng.integers(1, 40))
        density = float(rng.uniform(0.0, 0.15))
        mask = rng.random((n, n)) < density
        mask = mask | mask.T
        np.fill_diagonal(mask, False)

        # Reference: per-node BFS component ids.
        reference = [-1] * n
        label = 0
        for start in range(n):
            if reference[start] >= 0:
                continue
            stack = [start]
            reference[start] = label
            while stack:
                node = stack.pop()
                for other in np.flatnonzero(mask[node]):
                    if reference[other] < 0:
                        reference[other] = label
                        stack.append(other)
            label += 1

        src, dst = np.nonzero(mask)
        for labels in (labels_from_mask(mask), labels_from_edges(n, src, dst)):
            same_mine = labels[:, None] == labels[None, :]
            ref = np.array(reference)
            same_ref = ref[:, None] == ref[None, :]
            assert np.array_equal(same_mine, same_ref)
