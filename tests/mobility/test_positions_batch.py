"""Property tests: batched ``positions(t)`` equals per-node ``position()``.

The neighbour cache samples all nodes through one vectorized call per
quantum; these tests pin that fast path to the scalar trajectory evaluation
it replaced — *exactly* (same IEEE arithmetic), for every mobility model,
including queries that run time backwards (the batch evaluator keeps
monotone cursors it must reset).
"""

import numpy as np
import pytest

from repro.mobility.base import MobilityModel
from repro.mobility.gauss_markov import GaussMarkovModel
from repro.mobility.grid import chain_positions, grid_positions
from repro.mobility.rpgm import ReferencePointGroupModel
from repro.mobility.static import StaticModel
from repro.mobility.trajectory import Segment, Trajectory
from repro.mobility.waypoint import RandomWaypointModel

DURATION = 60.0


def _waypoint():
    return RandomWaypointModel(
        num_nodes=12,
        width=900.0,
        height=500.0,
        duration=DURATION,
        rng=np.random.default_rng(7),
        max_speed=20.0,
        pause_time=5.0,
    )


def _models():
    waypoint = _waypoint()
    return {
        "waypoint": waypoint,
        "static": StaticModel([(10.0 * i, 5.0 * i) for i in range(8)]),
        "chain": StaticModel(chain_positions(6, 200.0)),
        "grid": StaticModel(grid_positions(3, 4, 150.0)),
        "gauss_markov": GaussMarkovModel(
            num_nodes=9,
            width=800.0,
            height=400.0,
            duration=DURATION,
            rng=np.random.default_rng(3),
        ),
        "rpgm": ReferencePointGroupModel(
            num_nodes=10,
            width=1000.0,
            height=600.0,
            duration=DURATION,
            rng=np.random.default_rng(5),
            num_groups=3,
        ),
    }


@pytest.mark.parametrize("name", list(_models().keys()))
def test_batched_positions_match_scalar(name):
    model = _models()[name]
    ids = model.node_ids
    for t in np.linspace(0.0, DURATION, 61):
        t = float(t)
        batch = model.positions(t)
        assert batch.shape == (len(ids), 2)
        for row, node_id in enumerate(ids):
            x, y = model.position(node_id, t)
            assert batch[row, 0] == x  # exact: same arithmetic, not approx
            assert batch[row, 1] == y


def test_batched_positions_handle_backward_queries():
    """The monotone cursor must reset when time jumps backwards."""
    model = _waypoint()
    forward = {float(t): model.positions(float(t)).copy() for t in (0.0, 30.0, 55.0)}
    for t in (55.0, 30.0, 0.0, 42.5):
        batch = model.positions(t)
        for row, node_id in enumerate(model.node_ids):
            assert tuple(batch[row]) == model.position(node_id, t)
    # And forward results are reproduced exactly after the rewind.
    for t, expected in forward.items():
        assert np.array_equal(model.positions(t), expected)


def test_batched_positions_return_fresh_arrays():
    """Callers may scribble on the result without corrupting the cache."""
    model = StaticModel([(0.0, 0.0), (100.0, 0.0)])
    first = model.positions(0.0)
    first[0, 0] = 12345.0
    assert model.positions(0.0)[0, 0] == 0.0


def test_batched_positions_before_first_segment():
    """Segments starting after t=0 pin the node at the segment origin."""
    trajectories = {
        0: Trajectory([Segment(t0=5.0, x0=50.0, y0=60.0, vx=1.0, vy=2.0)]),
        1: Trajectory.stationary(7.0, 8.0),
    }
    model = MobilityModel(trajectories)
    batch = model.positions(0.0)
    assert tuple(batch[0]) == (50.0, 60.0)
    assert tuple(batch[1]) == (7.0, 8.0)
    later = model.positions(6.0)
    assert tuple(later[0]) == (51.0, 62.0)
