"""Unit tests for scenario characterisation helpers."""

import numpy as np
import pytest

from repro.analysis.topology import (
    average_degree,
    average_path_length,
    link_lifetimes,
)
from repro.mobility.base import MobilityModel
from repro.mobility.static import StaticModel
from repro.mobility.trajectory import Segment, Trajectory
from repro.mobility.waypoint import RandomWaypointModel


def test_average_degree_chain():
    model = StaticModel([(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)])
    # Degrees: 1, 2, 1 -> mean 4/3.
    assert average_degree(model, 250.0, 0.0) == pytest.approx(4.0 / 3.0)


def test_average_path_length_chain():
    model = StaticModel([(0.0, 0.0), (200.0, 0.0), (400.0, 0.0), (600.0, 0.0)])
    # Hop counts: 1,2,3,1,2,1 -> mean 10/6.
    assert average_path_length(model, 250.0, 0.0) == pytest.approx(10.0 / 6.0)


def test_link_lifetimes_capture_a_break():
    trajectories = {
        0: Trajectory.stationary(0.0, 0.0),
        1: Trajectory(
            [
                Segment(t0=0.0, x0=200.0, y0=0.0, vx=0.0, vy=0.0),
                Segment(t0=10.0, x0=200.0, y0=0.0, vx=50.0, vy=0.0),
            ]
        ),
    }
    model = MobilityModel(trajectories)
    lifetimes = link_lifetimes(model, 250.0, duration=20.0, step=0.5)
    assert len(lifetimes) == 1
    # Link up from t=0 until distance > 250 (t = 11); sampled at 0.5 s.
    assert lifetimes[0] == pytest.approx(11.0, abs=0.6)


def test_link_lifetimes_static_network_reports_nothing():
    model = StaticModel([(0.0, 0.0), (200.0, 0.0)])
    assert link_lifetimes(model, 250.0, duration=10.0) == []


def test_waypoint_link_lifetime_scale_sanity():
    """At 20 m/s in a small field, link lifetimes are seconds, not minutes
    — the quantity the scaled benchmark's timeout axis is justified by."""
    model = RandomWaypointModel(
        num_nodes=12,
        width=600.0,
        height=300.0,
        duration=60.0,
        rng=np.random.default_rng(3),
    )
    lifetimes = link_lifetimes(model, 250.0, duration=60.0, step=0.5)
    assert lifetimes
    mean = sum(lifetimes) / len(lifetimes)
    assert 1.0 < mean < 40.0
