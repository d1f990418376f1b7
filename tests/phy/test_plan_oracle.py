"""Plan oracle: the delivery plan assembled from arrays against the
per-listener body it replaced.

``Channel._plan_for`` builds a sender's plan column by column from one
``NeighborCache.listeners`` query and keeps it as columns (``_rows`` zips
the per-listener ones back into listener tuples).  The oracle is the body
it had before — one frozenset membership test, one dict test and one dict
lookup per listener, over the public ``rx_neighbors`` / ``cs_neighbors`` /
``distance`` queries — kept here and pointed at a *separate all-pairs
cache* of the same layout, so nothing the grid's block cache or the single
query gets wrong can reach both sides.  The contract is exact: the same
``Radio`` objects in the same order, Python bools (``is``-comparable),
bit-equal powers, and — under a loss model — the draw rows the per-listener
rule drew for (in range, probability below 1) with its probabilities bit for
bit, for both backends and the plain, lossy and capture channels.

It bites: leaving ``_blocks`` uncleared in ``_rebucket``, not masking the
querying row out of the grid's result, and taking ``sqrt`` of the unmasked
squared distances each fail tests below.
"""

from __future__ import annotations

import gc
import weakref
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.base import MobilityModel
from repro.mobility.static import StaticModel
from repro.mobility.trajectory import Segment, Trajectory
from repro.mobility.waypoint import RandomWaypointModel
from repro.phy.channel import Channel
from repro.phy.neighbors import NeighborCache
from repro.phy.profiles import CaptureModel, ProbabilisticReception
from repro.phy.propagation import DiskPropagation
from repro.phy.radio import Radio
from repro.scenarios.builder import build_simulation
from repro.scenarios.presets import tiny_scenario
from repro.sim.engine import Simulator

PROPAGATION = DiskPropagation(rx_range=250.0, cs_range=550.0)
BACKENDS = ("allpairs", "grid")
KINDS = ("plain", "lossy", "capture")
every_channel = pytest.mark.parametrize("kind", KINDS)
every_backend = pytest.mark.parametrize("index", BACKENDS)


def _oracle_plan(channel, reference, sender_id, now):
    """The per-listener miss path ``Channel._plan_for`` replaced, over the
    geometry of ``reference``."""
    neighbors = reference
    rx_set = frozenset(neighbors.rx_neighbors(sender_id, now))
    cs_list = neighbors.cs_neighbors(sender_id, now)
    radios = channel._radios
    capture = channel.capture
    distances = repeat(0.0)
    powers = repeat(0.0)
    if capture is not None or channel._loss is not None:
        distances = [neighbors.distance(sender_id, n, now) for n in cs_list]
        if capture is not None:
            powers = map(capture.power_db, distances)
    return [
        (radios[node_id], node_id in rx_set, distance, power)
        for node_id, distance, power in zip(cs_list, distances, powers)
        if node_id in radios
    ]


def _channel(model, index, kind):
    neighbors = NeighborCache(model, PROPAGATION, quantum=0.05, index=index)
    options = {}
    if kind == "lossy":
        options = {
            "loss_model": ProbabilisticReception(
                rx_range=250.0, reliable_fraction=0.7, base_delivery=0.8
            ),
            "rng": np.random.default_rng(5),
        }
    elif kind == "capture":
        options = {"capture": CaptureModel(threshold_db=6.0)}
    return Channel(Simulator(), neighbors, **options)


def _pair(model_factory, index, kind, attach=None):
    """A channel over ``index`` with radios for ``attach`` (default: every
    node), and the all-pairs reference cache of the same layout."""
    channel = _channel(model_factory(), index, kind)
    for node_id in channel.neighbors.node_ids if attach is None else attach:
        Radio(node_id, channel)
    reference = NeighborCache(model_factory(), PROPAGATION, quantum=0.05, index="allpairs")
    return channel, reference


def _rows(plan):
    """A column plan as ``(radio, in_rx, power)`` rows; the endless
    ``repeat`` column ends with the radios."""
    return list(zip(plan[0], plan[1], plan[2]))


def _assert_plan_matches(channel, reference, sender_id, now):
    plan = channel._plan_for(sender_id, now)
    expected = _oracle_plan(channel, reference, sender_id, now)
    # Every per-listener column is whole (zip would hide a short one).
    assert all(len(col) == len(expected) for col in plan[:3] if isinstance(col, list))
    rows = _rows(plan)
    assert len(rows) == len(expected)
    for (radio, receivable, power), want in zip(rows, expected):
        assert radio is want[0]
        assert receivable is want[1]  # a Python bool, never numpy.bool_
        assert type(power) is float
        assert power.hex() == want[3].hex()
    draws, probabilities = plan[3], plan[4]
    loss = channel._loss
    if loss is None:
        assert not draws and probabilities is None
        return plan
    wanted = [
        (row, loss.delivery_probability(want[2]))
        for row, want in enumerate(expected)
        if want[1] and loss.delivery_probability(want[2]) < 1.0
    ]
    assert draws == [row for row, _p in wanted]
    assert all(type(row) is int for row in draws)
    assert [p.hex() for p in probabilities.tolist()] == [p.hex() for _r, p in wanted]
    return plan


def _assert_all_senders_match(channel, reference, now):
    for sender_id in channel.neighbors.node_ids:
        _assert_plan_matches(channel, reference, sender_id, now)


# -- the equivalence file's adversarial static layouts -------------------------

ADVERSARIAL_LAYOUTS = {
    "cell-boundary": [
        (0.0, 0.0),
        (550.0, 0.0),
        (550.0, 550.0),
        (1100.0, 0.0),
        (250.0, 0.0),
        (250.0 + 5e-13, 0.0),
        (-550.0, -550.0),
        (549.9999999999999, 0.0),
    ],
    "coincident": [(100.0, 100.0)] * 4
    + [(100.0, 350.0), (100.0, 350.0), (900.0, 100.0)],
    "far-out-of-area": [
        (0.0, 0.0),
        (200.0, 0.0),
        (400.0, 100.0),
        (1e6, 1e6),
        (-1e6, 5e5),
        (1e6 + 100.0, 1e6),
    ],
}


@every_channel
@every_backend
@pytest.mark.parametrize("layout", sorted(ADVERSARIAL_LAYOUTS))
def test_adversarial_static_layouts(layout, index, kind):
    positions = ADVERSARIAL_LAYOUTS[layout]
    channel, reference = _pair(lambda: StaticModel(positions), index, kind)
    _assert_all_senders_match(channel, reference, 0.0)


# -- moving layouts ------------------------------------------------------------


def _fast_mover():
    """One node sweeping the strip at 200 m/s past three parked ones: it
    changes cell every few seconds and the grid rebuckets every second."""
    return MobilityModel(
        {
            0: Trajectory.stationary(0.0, 0.0),
            1: Trajectory.stationary(540.0, 0.0),
            2: Trajectory([Segment(t0=0.0, x0=-2000.0, y0=10.0, vx=200.0, vy=0.0)]),
            3: Trajectory.stationary(1100.0, 0.0),
        }
    )


@every_channel
@every_backend
def test_fast_mover_across_rebuckets_and_back_in_time(index, kind):
    channel, reference = _pair(_fast_mover, index, kind)
    held = channel._plan_for(0, 0.0)
    snapshot = _rows(held)
    for t in np.arange(0.0, 20.0, 0.05):
        _assert_all_senders_match(channel, reference, float(t))
    # Earlier than the last query: buckets and blocks are rebuilt for the past.
    for t in (12.5, 3.0, 0.0):
        _assert_all_senders_match(channel, reference, t)
    # Plans are replaced, never mutated: a frame in flight keeps its listeners.
    assert _rows(held) == snapshot and held is not channel._plan_for(0, 0.0)


@every_channel
@every_backend
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    probes=st.lists(
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
        min_size=2,
        max_size=6,
    ),
)
@settings(max_examples=15, deadline=None)
def test_random_waypoint_runs(index, kind, seed, probes):
    """Probe times in any order: forwards across rebucket horizons (1 s)
    and backwards to a time earlier than the last query."""

    def factory():
        return RandomWaypointModel(
            num_nodes=30,
            width=3300.0,
            height=1100.0,
            duration=40.0,
            rng=np.random.default_rng(seed),
            max_speed=60.0,
            pause_time=0.0,
        )

    channel, reference = _pair(factory, index, kind)
    for t in probes + [min(probes) / 2.0]:
        _assert_all_senders_match(channel, reference, t)


# -- radios for only some nodes --------------------------------------------------


@every_channel
@every_backend
def test_partial_and_late_attachment(index, kind):
    positions = [(float(90 * i), 0.0) for i in range(9)]
    evens = [0, 2, 4, 6, 8]
    channel, reference = _pair(lambda: StaticModel(positions), index, kind, attach=evens)
    first = _assert_plan_matches(channel, reference, 4, 0.0)
    assert [row[0].node_id for row in _rows(first)] == [0, 2, 6, 8]

    late = Radio(3, channel)
    # A sender with no plan yet this quantum sees the new radio at once ...
    other = _assert_plan_matches(channel, reference, 2, 0.0)
    assert late in [row[0] for row in _rows(other)]
    # ... one that has a plan keeps it until the quantum turns, as before.
    assert channel._plan_for(4, 0.0) is first
    turned = _assert_plan_matches(channel, reference, 4, 0.05)
    assert [row[0].node_id for row in _rows(turned)] == [0, 2, 3, 6, 8]

    for node_id in (1, 5, 7):
        Radio(node_id, channel)
    _assert_all_senders_match(channel, reference, 0.1)
    assert len(_rows(channel._plan_for(4, 0.1))) == 8  # everyone senses everyone here


# -- the radio column must not pin the world -------------------------------------


@every_backend
def test_a_finished_simulation_is_collectable(index):
    """radio -> channel -> radio column is a reference cycle.  Held in a numpy
    object array — which the cycle collector cannot traverse — it leaked the
    channel, radios, MACs and agents of every simulation a process ran (a
    sweep worker runs dozens); the ledger saw it as ``peak_rss_mb`` on the
    sweep workloads.  The column is a list, and the world dies with its handle."""
    handle = build_simulation(tiny_scenario(seed=2).but(duration=3.0, neighbor_index=index))
    handle.run()
    assert handle.channel._radio_rows is not None  # plans were built
    channel = weakref.ref(handle.channel)
    radio = weakref.ref(handle.channel.radio(0))
    del handle
    gc.collect()
    assert channel() is None and radio() is None
