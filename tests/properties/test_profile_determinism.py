"""Property tests: loss-model determinism across radio profiles.

Identical seeds must give identical reception decisions for every profile
and loss configuration — the whole-sweep reproducibility contract rests on
the channel drawing exclusively from the explicitly seeded fading stream.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.phy.profiles import (
    ProbabilisticReception,
    build_loss_model,
    profile_names,
    resolve_profile,
)
from repro.scenarios.config import ScenarioConfig
from repro.sim.rng import RandomStreams

from tests.helpers import lone_sender_deliveries


def _decisions(model, rng, distances, cs_range: float = 550.0) -> list:
    """Frames each listener of a lone sender decoded, out of five."""
    return lone_sender_deliveries(
        distances, model, rng, frames=5, rx_range=model.rx_range, cs_range=cs_range
    )


@given(
    profile=st.sampled_from(profile_names()),
    link_loss=st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_identical_seeds_give_identical_decisions(profile, link_loss, seed):
    config = ScenarioConfig(radio_profile=profile, link_loss=link_loss)
    model = build_loss_model(resolve_profile(config), config)
    if model is None:  # wavelan at link_loss 0: deterministic disk
        return
    profile = resolve_profile(config)
    distances = np.linspace(0.0, profile.rx_range, 50)

    def decisions():
        fading = RandomStreams(seed).stream("fading")
        return _decisions(model, fading, distances, profile.cs_range)

    assert decisions() == decisions()


@given(
    profile=st.sampled_from(profile_names()),
    link_loss=st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_loss_models_are_value_equal_across_constructions(profile, link_loss):
    # build_loss_model must be a pure function of (profile, config): two
    # constructions compare equal, so worker processes rebuild the exact
    # same channel from the canonical scenario payload.
    config = ScenarioConfig(radio_profile=profile, link_loss=link_loss)
    first = build_loss_model(resolve_profile(config), config)
    second = build_loss_model(resolve_profile(config), config)
    assert first == second


@given(
    reliable=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    edge=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    base=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    distance=st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_delivery_probability_is_bounded_and_monotone(
    reliable, edge, base, distance
):
    model = ProbabilisticReception(
        rx_range=250.0,
        reliable_fraction=reliable,
        edge_delivery_probability=edge,
        base_delivery=base,
    )
    p = model.delivery_probability(distance)
    assert 0.0 <= p <= base + 1e-12
    # Monotone non-increasing in distance whenever edge <= 1 keeps the ramp
    # downhill (edge > certain would be unphysical and is not constructable
    # above base anyway).
    if edge <= 1.0:
        closer = model.delivery_probability(distance * 0.5)
        assert closer >= p - 1e-12


@given(
    reliable=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    edge=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    base=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    distances=st.lists(
        st.floats(min_value=0.0, max_value=400.0, allow_nan=False), max_size=20
    ),
)
@example(reliable=1.0, edge=0.0, base=0.8, distances=[])  # link loss, no ramp
@example(reliable=1.0, edge=0.3, base=1.0, distances=[])  # no ramp, a floor
@example(reliable=0.5, edge=0.05, base=0.9, distances=[])  # urban's shape
@example(reliable=0.8, edge=0.0, base=1.0, distances=[])  # the legacy grey zone
@example(reliable=0.0, edge=0.4, base=0.6, distances=[])  # all ramp
@settings(max_examples=80, deadline=None)
def test_probability_column_is_the_scalar_rule_bit_for_bit(
    reliable, edge, base, distances
):
    # The channel computes a plan's probabilities in one vectorised pass;
    # the draws compare against them, so they must be the scalar rule's
    # floats exactly, at the clamps and on either side of them too.
    model = ProbabilisticReception(
        rx_range=250.0,
        reliable_fraction=reliable,
        edge_delivery_probability=edge,
        base_delivery=base,
    )
    edge_of_reliable = reliable * 250.0
    pinned = [
        0.0,
        math.nextafter(edge_of_reliable, 0.0),
        edge_of_reliable,
        math.nextafter(edge_of_reliable, math.inf),
        (edge_of_reliable + 250.0) / 2.0,
        math.nextafter(250.0, 0.0),
        250.0,
        math.nextafter(250.0, math.inf),
        400.0,
    ]
    points = pinned + distances
    column = model.delivery_probabilities(np.array(points))
    assert [p.hex() for p in column.tolist()] == [
        model.delivery_probability(d).hex() for d in points
    ]


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_seed_stream_isolation(seed):
    # Decisions depend only on the named stream, not on other streams
    # having been consumed — the builder draws mobility/traffic first.
    model = ProbabilisticReception(rx_range=250.0, base_delivery=0.5)
    distances = [100.0] * 40

    streams = RandomStreams(seed)
    streams.stream("mobility").random(1000)  # unrelated consumption
    polluted = _decisions(model, streams.stream("fading"), distances)

    fresh = _decisions(model, RandomStreams(seed).stream("fading"), distances)
    assert polluted == fresh
