"""Property-based tests for scenario content hashing.

The sweep result cache is only sound if the scenario hash is (a) stable
under serialisation round-trips and dict-key reordering and (b) sensitive
to every field that changes what a run computes.  These properties are the
cache's correctness contract; `tests/analysis/test_cache.py` additionally
pins them per-field deterministically.
"""

import dataclasses
import json
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cache import scenario_hash
from repro.core.config import DsrConfig, ExpiryMode
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.io import (
    scenario_canonical_json,
    scenario_from_dict,
    scenario_to_dict,
)

scenario_configs = st.builds(
    ScenarioConfig,
    num_nodes=st.integers(min_value=6, max_value=60),
    field_width=st.floats(min_value=100.0, max_value=3000.0, allow_nan=False),
    field_height=st.floats(min_value=100.0, max_value=1000.0, allow_nan=False),
    # abs() keeps -0.0 out: it compares equal to 0.0 but serialises as "-0.0",
    # which would make two equal configs hash differently.
    pause_time=st.floats(min_value=0.0, max_value=500.0, allow_nan=False).map(abs),
    duration=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    num_sessions=st.integers(min_value=0, max_value=6),
    packet_rate=st.floats(min_value=0.5, max_value=8.0, allow_nan=False),
    mobility_model=st.sampled_from(["waypoint", "gauss_markov", "rpgm"]),
    # The post-v1 fields, at their defaults (elided from the canonical JSON)
    # about as often as not.
    radio_profile=st.sampled_from(["wavelan", "wavelan", "urban"]),
    link_loss=st.one_of(
        st.just(0.0), st.floats(min_value=0.01, max_value=0.9, allow_nan=False)
    ),
    walk_epoch=st.one_of(
        st.just(10.0), st.floats(min_value=0.5, max_value=60.0, allow_nan=False)
    ),
    protocol=st.sampled_from(["dsr", "aodv"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    dsr=st.builds(
        DsrConfig,
        reply_from_cache=st.booleans(),
        wider_error=st.booleans(),
        negative_cache=st.booleans(),
        expiry_mode=st.sampled_from(list(ExpiryMode)),
        static_timeout=st.floats(min_value=0.5, max_value=60.0, allow_nan=False),
        cache_capacity=st.integers(min_value=1, max_value=128),
    ),
)



def spellings(lo, hi, above_lo=False):
    """Every way a number in ``[lo, hi]`` (``(lo, hi]`` with ``above_lo``)
    can be spelled: a float, an int, an int-valued float, a bool, and
    ``-0.0`` where the range admits zero.  Equal spellings compare and hash
    alike but encode differently.  Only spellings the range holds are drawn:
    no bool lies in ``[100, 3000]``, so that range has no bool option."""
    lo, hi = float(lo), float(hi)
    lowest_int = math.floor(lo) + 1 if above_lo else math.ceil(lo)
    in_range = [b for b in (False, True) if (lo < b if above_lo else lo <= b) and b <= hi]
    options = [
        st.floats(min_value=lo, max_value=hi, exclude_min=above_lo, allow_nan=False)
    ]
    if lowest_int <= hi:
        ints = st.integers(min_value=lowest_int, max_value=math.floor(hi))
        options += [ints, ints.map(float)]
    if in_range:
        options.append(st.sampled_from(in_range))
    if lo < 0.0 or (lo == 0.0 and not above_lo):
        options.append(st.just(-0.0))
    return st.one_of(options)


# Fields whose check demands a positive value.
_POSITIVE_DSR_FIELDS = {
    "static_timeout",
    "adaptive_alpha",
    "adaptive_min_timeout",
    "expiry_check_period",
    "negative_cache_size",
    "negative_cache_timeout",
    "cache_capacity",
    "rreq_ttl",
}


def _dsr_override(field_):
    if field_.name == "expiry_mode":
        return st.sampled_from(list(ExpiryMode))
    if isinstance(field_.default, bool):
        return st.booleans() | st.sampled_from([0, 1])
    lo = 1 if field_.name in _POSITIVE_DSR_FIELDS else 0
    if isinstance(field_.default, int):
        return st.integers(min_value=lo, max_value=300) | st.sampled_from(
            [b for b in (False, True) if b >= lo]
        )
    return spellings(0.001 if lo else 0.0, 60.0)


_NAMED_DSR = [
    DsrConfig.base,
    DsrConfig.with_wider_error,
    DsrConfig.with_adaptive_expiry,
    DsrConfig.with_negative_cache,
    DsrConfig.with_freshness_tags,
    DsrConfig.all_techniques,
]
named_dsr_configs = st.one_of(
    st.sampled_from(_NAMED_DSR).map(lambda make: make()),
    spellings(0.001, 60.0).map(DsrConfig.with_static_expiry),
)
spelled_dsr_configs = st.builds(
    lambda dsr, overrides: dsr.but(**overrides),
    named_dsr_configs,
    st.fixed_dictionaries(
        {},
        optional={
            field_.name: _dsr_override(field_)
            for field_ in dataclasses.fields(DsrConfig)
        },
    ),
)

@st.composite
def _mobility_fields(draw):
    """``num_nodes``, the mobility model and the knobs it checks, drawn so
    the model accepts them: waypoint and random_walk need ``0 < min_speed
    <= max_speed``, rpgm needs ``0.1 <= max_speed`` and no more groups than
    nodes, gauss_markov needs ``max_speed > 0``.  A knob the model does not
    check spans its whole range in every spelling."""
    num_nodes = draw(st.integers(min_value=6, max_value=60))
    model = draw(st.sampled_from(["waypoint", "gauss_markov", "rpgm", "random_walk"]))
    if model in ("waypoint", "random_walk"):
        min_speed = draw(spellings(0.0, 1.0, above_lo=True))
        max_speed = draw(spellings(min_speed, 30.0))
    else:
        min_speed = draw(spellings(0.0, 1.0))
        max_speed = draw(
            spellings(0.1, 30.0) if model == "rpgm" else spellings(0.0, 30.0, above_lo=True)
        )
    most_groups = min(8, num_nodes) if model == "rpgm" else 8
    return {
        "num_nodes": num_nodes,
        "mobility_model": model,
        "min_speed": min_speed,
        "max_speed": max_speed,
        "rpgm_groups": draw(st.integers(min_value=1, max_value=most_groups) | st.just(True)),
    }


# Every field in several spellings, each compat field at and off its default.
spelled_scenario_configs = st.builds(
    lambda mobility, **fields: ScenarioConfig(**mobility, **fields),
    _mobility_fields(),
    field_width=spellings(100.0, 3000.0),
    field_height=spellings(100.0, 1000.0),
    pause_time=spellings(0.0, 500.0),
    duration=spellings(1.0, 500.0),
    walk_epoch=st.sampled_from([10.0, 10]) | spellings(0.5, 60.0),
    num_sessions=st.integers(min_value=0, max_value=6) | st.booleans(),
    packet_rate=spellings(0.5, 8.0),
    start_window=spellings(0.0, 20.0),
    radio_profile=st.sampled_from(["wavelan", "urban"]),
    grey_zone_fraction=spellings(0.0, 0.9),
    link_loss=st.sampled_from([0.0, 0, -0.0, False]) | spellings(0.0, 0.9),
    neighbor_quantum=spellings(0.01, 1.0),
    track_energy=st.booleans(),
    track_reachability=st.booleans(),
    use_eifs=st.booleans(),
    protocol=st.sampled_from(["dsr", "aodv"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    dsr=spelled_dsr_configs,
)


@settings(max_examples=60, deadline=None)
@given(config=scenario_configs)
def test_hash_stable_across_serialisation_roundtrip(config):
    key = scenario_hash(config)
    payload = scenario_to_dict(config)
    assert scenario_hash(payload) == key
    assert scenario_hash(json.loads(json.dumps(payload))) == key
    assert scenario_hash(scenario_from_dict(payload)) == key


@settings(max_examples=60, deadline=None)
@given(config=scenario_configs, data=st.data())
def test_hash_insensitive_to_key_order(config, data):
    payload = scenario_to_dict(config)
    keys = data.draw(st.permutations(list(payload)))
    dsr_keys = data.draw(st.permutations(list(payload["dsr"])))
    shuffled = {k: payload[k] for k in keys}
    shuffled["dsr"] = {k: payload["dsr"][k] for k in dsr_keys}
    assert scenario_canonical_json(shuffled) == scenario_canonical_json(payload)
    assert scenario_hash(shuffled) == scenario_hash(payload)


@settings(max_examples=60, deadline=None)
@given(a=scenario_configs, b=scenario_configs)
def test_distinct_configs_get_distinct_hashes(a, b):
    if a == b:
        assert scenario_hash(a) == scenario_hash(b)
    else:
        assert scenario_hash(a) != scenario_hash(b)


@settings(max_examples=60, deadline=None)
@given(config=scenario_configs, delta=st.integers(min_value=1, max_value=1000))
def test_hash_changes_when_seed_changes(config, delta):
    assert scenario_hash(config) != scenario_hash(config.but(seed=config.seed + delta))


# Keys the parent commit computed for ScenarioConfig(num_nodes=20,
# num_sessions=5, duration=40.0, dsr=...): equal DsrConfigs, four spellings.
_PARENT_KEYS = [
    ({"static_timeout": 10}, "6843b122bb8abc2ed88fe748695bc94a02266ef2f66fe95f9db45bc1e920de02"),
    ({"static_timeout": 10.0}, "2d3710a53c2010bc61e837b7bc53779d946050701299b4c68a26f0dd091fbd51"),
    ({"salvaging": 1}, "084acf2d227a945f5d66b1b026332e04bac0d3c5dd5732bb49688042b68a533f"),
    ({"broadcast_jitter": 0.0}, "1019312c61b8f40a250a0d84a294c7adf25d3d1d409959d094949a486384cd30"),
    ({"broadcast_jitter": -0.0}, "f963426e9ce919f25fd5b2ba95a8aae04a585da9fbe9668619e2b9a0f49dc9b4"),
]


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_equal_dsr_configs_keep_their_own_spellings_key(order):
    """A value-keyed memo of the DsrConfig fragment would hand
    ``static_timeout=10``'s key to ``static_timeout=10.0`` (they compare and
    hash alike), whichever was encoded first."""
    assert DsrConfig(static_timeout=10) == DsrConfig(static_timeout=10.0)
    assert hash(DsrConfig(static_timeout=10)) == hash(DsrConfig(static_timeout=10.0))
    for changes, key in _PARENT_KEYS[::order]:
        config = ScenarioConfig(
            num_nodes=20, num_sessions=5, duration=40.0, dsr=DsrConfig(**changes)
        )
        assert scenario_hash(config) == key, changes
        assert scenario_hash(config) == key, changes  # the kept fragment
        assert scenario_hash(scenario_to_dict(config)) == key, changes


@settings(max_examples=60, deadline=None)
@given(config=spelled_scenario_configs, hashed_first=st.booleans())
def test_pickled_config_hashes_the_same(config, hashed_first):
    """A pool worker receives its config pickled, after or before the
    parent took its key."""
    key = scenario_hash(scenario_to_dict(config))
    if hashed_first:
        assert scenario_hash(config) == key
    shipped = pickle.loads(pickle.dumps(config))
    assert shipped == config
    assert scenario_hash(shipped) == key
    assert scenario_hash(config) == key
