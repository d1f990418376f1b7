"""Property-based tests for scenario content hashing.

The sweep result cache is only sound if the scenario hash is (a) stable
under serialisation round-trips and dict-key reordering and (b) sensitive
to every field that changes what a run computes.  These properties are the
cache's correctness contract; `tests/analysis/test_cache.py` additionally
pins them per-field deterministically.
"""

import json

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
    radio_profile=st.sampled_from(["wavelan", "wavelan", "urban", "longhaul"]),
    link_loss=st.one_of(
        st.just(0.0), st.floats(min_value=0.01, max_value=0.9, allow_nan=False)
    ),
    walk_epoch=st.one_of(
        st.just(10.0), st.floats(min_value=0.5, max_value=60.0, allow_nan=False)
    ),
    protocol=st.sampled_from(["dsr", "aodv", "flooding"]),
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
