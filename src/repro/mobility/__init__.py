"""Node mobility models.

The paper uses the *random waypoint* model in a 2200 m x 600 m rectangle with
speeds uniform in (0, 20] m/s and a configurable pause time.  We reproduce
that model exactly, plus static and deterministic layouts used by the tests.

Positions are represented as piecewise-linear :class:`Trajectory` objects so
that the channel can evaluate any node's position at any instant in O(log
segments) without per-tick position updates.
"""

from repro.mobility.base import MobilityModel
from repro.mobility.trajectory import Segment, Trajectory
from repro.mobility.waypoint import RandomWaypointModel
from repro.mobility.random_walk import RandomWalkModel
from repro.mobility.gauss_markov import GaussMarkovModel
from repro.mobility.rpgm import ReferencePointGroupModel
from repro.mobility.static import StaticModel
from repro.mobility.grid import chain_positions, grid_positions

__all__ = [
    "MobilityModel",
    "Segment",
    "Trajectory",
    "RandomWaypointModel",
    "RandomWalkModel",
    "GaussMarkovModel",
    "ReferencePointGroupModel",
    "StaticModel",
    "chain_positions",
    "grid_positions",
]
