"""The field-plan encoders against the reflective ones they replaced.

``dataclasses.asdict`` (recursive, deep-copying) was the encoder behind
every cache key and cache entry up to commit 16edc60; it lives on here as
the oracle.  For any config and any result, the field-plan encoders must
produce an equal dict and byte-identical canonical JSON, keys and entries.
"""

import dataclasses
import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cache import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    make_entry,
    result_from_payload,
    result_to_payload,
    scenario_hash,
)
from repro.core.config import DsrConfig
from repro.metrics.collector import SimulationResult
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.io import (
    _canonical_encode,
    scenario_canonical_json,
    scenario_from_dict,
    scenario_to_dict,
)

from tests.properties.test_hash_properties import (
    scenario_configs,
    spelled_scenario_configs,
)


def oracle_scenario_to_dict(config):
    payload = dataclasses.asdict(config)
    payload["dsr"]["expiry_mode"] = config.dsr.expiry_mode.value
    for key, compat_default in (
        ("radio_profile", "wavelan"),
        ("link_loss", 0.0),
        ("walk_epoch", 10.0),
    ):
        if payload[key] == compat_default:
            del payload[key]
    return payload


def oracle_canonical_json(config):
    return json.dumps(
        oracle_scenario_to_dict(config), sort_keys=True, separators=(",", ":")
    )


def oracle_scenario_hash(config):
    material = f"v1:{oracle_canonical_json(config)}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def oracle_entry(key, result):
    return {
        "format_version": 1,
        "scenario_hash": key,
        "result": dataclasses.asdict(result),
    }


counts = st.integers(min_value=0, max_value=10**7)
reals = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
simulation_results = st.builds(
    SimulationResult,
    duration=reals,
    data_sent=counts,
    data_received=counts,
    duplicate_deliveries=counts,
    delay_sum=reals,
    mac_control_tx=counts,
    routing_tx=counts,
    data_tx=counts,
    mac_failures=counts,
    ifq_drops=counts,
    rreq_sent=counts,
    replies_received=counts,
    good_replies=counts,
    cache_replies_received=counts,
    replies_sent_from_cache=counts,
    replies_sent_from_target=counts,
    cache_hits=counts,
    invalid_cache_hits=counts,
    link_breaks=counts,
    salvages=counts,
    drop_reasons=st.dictionaries(st.text(max_size=12), counts, max_size=5),
    offered_load_kbps=st.none() | reals,
    throughput_kbps=reals,
    data_sent_reachable=st.none() | counts,
    data_received_reachable=st.none() | counts,
)


@settings(max_examples=100, deadline=None)
@given(config=scenario_configs)
def test_scenario_encoder_equals_the_asdict_oracle(config):
    payload = scenario_to_dict(config)
    assert payload == oracle_scenario_to_dict(config)
    assert scenario_canonical_json(config) == oracle_canonical_json(config)
    assert scenario_canonical_json(payload) == oracle_canonical_json(config)
    assert scenario_hash(config) == oracle_scenario_hash(config)
    assert scenario_hash(payload) == oracle_scenario_hash(config)
    assert scenario_from_dict(payload) == config
    assert CACHE_FORMAT_VERSION == 1


@settings(max_examples=50, deadline=None)
@given(config=scenario_configs)
def test_scenario_encoder_lists_keys_in_sorted_order(config):
    """The canonical encoder keeps ``sort_keys=True``; handing it a payload
    already in key order is what makes that sort one linear pass."""
    payload = scenario_to_dict(config)
    assert list(payload) == sorted(payload)
    assert list(payload["dsr"]) == sorted(payload["dsr"])


@settings(max_examples=200, deadline=None)
@given(config=spelled_scenario_configs)
def test_spliced_key_equals_the_dict_path(config):
    """A ScenarioConfig's key splices its DsrConfig's kept fragment into the
    encoding of its other fields; a dict payload is encoded whole.  Both
    must give the oracle's bytes, before and after the fragment is kept."""
    payload = scenario_to_dict(config)
    expected = _canonical_encode(payload)
    assert expected == oracle_canonical_json(config)
    assert scenario_canonical_json(config) == expected  # encodes the fragment
    assert scenario_canonical_json(config) == expected  # reuses it
    assert scenario_hash(config) == scenario_hash(payload)
    assert scenario_hash(config) == oracle_scenario_hash(config)


def test_shared_and_equal_dsr_instances_give_the_oracle_keys():
    """A grid row shares one DsrConfig; another row may hold an equal but
    distinct instance.  Every point keys as the oracle does."""
    for make in (DsrConfig.base, DsrConfig.with_wider_error, DsrConfig.all_techniques):
        shared = make()
        for pause in (0, 0.0, 30.0, 600):
            for seed in range(3):
                for dsr in (shared, make()):
                    config = ScenarioConfig(
                        num_nodes=20, num_sessions=5, duration=40.0,
                        pause_time=pause, seed=seed, dsr=dsr,
                    )
                    assert scenario_hash(config) == oracle_scenario_hash(config)
                    assert scenario_canonical_json(config) == oracle_canonical_json(config)


@settings(max_examples=100, deadline=None)
@given(result=simulation_results)
def test_result_encoder_equals_the_asdict_oracle(result):
    payload = result_to_payload(result)
    assert payload == dataclasses.asdict(result)
    assert result_from_payload(payload) == result
    key = "ab" + "0" * 62
    assert make_entry(key, result) == oracle_entry(key, result)
    assert json.dumps(make_entry(key, result), sort_keys=True) == json.dumps(
        oracle_entry(key, result), sort_keys=True
    )


@settings(max_examples=25, deadline=None)
@given(result=simulation_results)
def test_stored_file_equals_the_asdict_oracle(result, tmp_path_factory):
    key = "cd" + "1" * 62
    cache = ResultCache(tmp_path_factory.mktemp("oracle"))
    written = cache.put(key, result).read_bytes()
    assert written == json.dumps(oracle_entry(key, result), sort_keys=True).encode()
    assert cache.get(key) == result
