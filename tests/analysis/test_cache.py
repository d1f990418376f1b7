"""Tests for the content-addressed result cache and scenario hashing."""

import dataclasses
import errno
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cache import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    result_from_payload,
    result_to_payload,
    scenario_hash,
)
from repro.core.config import DsrConfig, ExpiryMode
from repro.metrics.collector import SimulationResult
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.io import scenario_canonical_json, scenario_to_dict

from tests.properties.test_encoder_oracle import simulation_results


def _config(**changes):
    base = ScenarioConfig(
        num_nodes=20,
        field_width=800.0,
        field_height=400.0,
        duration=60.0,
        num_sessions=5,
        pause_time=30.0,
        mobility_model="gauss_markov",
        grey_zone_fraction=0.1,
        dsr=DsrConfig.all_techniques().but(static_timeout=7.5),
        seed=42,
    )
    return base.but(**changes) if changes else base


def _result(**changes):
    base = SimulationResult(
        duration=100.0,
        data_sent=100,
        data_received=90,
        duplicate_deliveries=1,
        delay_sum=9.0,
        mac_control_tx=300,
        routing_tx=120,
        data_tx=400,
        mac_failures=5,
        ifq_drops=2,
        rreq_sent=8,
        replies_received=10,
        good_replies=6,
        cache_replies_received=4,
        replies_sent_from_cache=3,
        replies_sent_from_target=7,
        cache_hits=50,
        invalid_cache_hits=10,
        link_breaks=12,
        salvages=3,
        drop_reasons={"no-route-to-salvage": 4},
        offered_load_kbps=98.3,
        throughput_kbps=36.9,
        data_sent_reachable=95,
        data_received_reachable=90,
    )
    return dataclasses.replace(base, **changes) if changes else base


# -- scenario hashing -------------------------------------------------------


def test_hash_stable_across_roundtrips():
    config = _config()
    key = scenario_hash(config)
    # config -> dict -> json -> dict keeps the key.
    payload = scenario_to_dict(config)
    assert scenario_hash(payload) == key
    assert scenario_hash(json.loads(json.dumps(payload))) == key


def test_hash_insensitive_to_dict_key_order():
    payload = scenario_to_dict(_config())
    shuffled = dict(reversed(list(payload.items())))
    shuffled["dsr"] = dict(reversed(list(payload["dsr"].items())))
    assert scenario_hash(shuffled) == scenario_hash(payload)
    assert scenario_canonical_json(shuffled) == scenario_canonical_json(payload)


def _field_perturbations():
    """One changed copy of the reference config per ScenarioConfig and
    DsrConfig field — the property the cache key must be sensitive to."""
    config = _config()
    perturbed = {}
    overrides = {
        "num_nodes": 21,
        "field_width": 801.0,
        "field_height": 401.0,
        "max_speed": 19.0,
        "min_speed": 0.2,
        "pause_time": 31.0,
        "duration": 61.0,
        "mobility_model": "rpgm",
        "rpgm_groups": 5,
        "num_sessions": 6,
        "packet_rate": 4.0,
        "payload_bytes": 256,
        "start_window": 11.0,
        "traffic_type": "tcp",
        "rx_range": 251.0,
        "cs_range": 551.0,
        "radio_profile": "urban",
        "link_loss": 0.1,
        "walk_epoch": 12.0,
        "grey_zone_fraction": 0.2,
        "neighbor_quantum": 0.06,
        "neighbor_index": "grid",
        "ifq_capacity": 51,
        "track_energy": True,
        "track_reachability": True,
        "use_eifs": True,
        "protocol": "aodv",
        "seed": 43,
    }
    for name, value in overrides.items():
        perturbed[name] = config.but(**{name: value})
    return perturbed


def test_hash_changes_when_any_scenario_field_changes():
    reference = scenario_hash(_config())
    perturbed = _field_perturbations()
    scenario_fields = {
        f.name for f in dataclasses.fields(ScenarioConfig) if f.name != "dsr"
    }
    assert set(perturbed) == scenario_fields  # every field is exercised
    for name, changed in perturbed.items():
        assert scenario_hash(changed) != reference, f"hash blind to {name}"


def test_hash_changes_when_any_dsr_field_changes():
    config = _config()
    reference = scenario_hash(config)
    dsr = config.dsr
    seen = set()
    for field_ in dataclasses.fields(DsrConfig):
        value = getattr(dsr, field_.name)
        if isinstance(value, bool):
            changed = dsr.but(**{field_.name: not value})
        elif isinstance(value, ExpiryMode):
            other = next(mode for mode in ExpiryMode if mode != value)
            changed = dsr.but(**{field_.name: other})
        elif isinstance(value, (int, float)):
            changed = dsr.but(**{field_.name: value + 1})
        else:  # pragma: no cover - new field types must be added here
            pytest.fail(f"unhandled DsrConfig field type: {field_.name}")
        assert (
            scenario_hash(config.but(dsr=changed)) != reference
        ), f"hash blind to dsr.{field_.name}"
        seen.add(field_.name)
    assert seen == {f.name for f in dataclasses.fields(DsrConfig)}


def test_hash_folds_in_format_version(monkeypatch):
    key = scenario_hash(_config())
    monkeypatch.setattr("repro.analysis.cache.CACHE_FORMAT_VERSION", 999)
    assert scenario_hash(_config()) != key


# -- result payload round-trip ---------------------------------------------


def test_result_payload_roundtrip():
    result = _result()
    rebuilt = result_from_payload(json.loads(json.dumps(result_to_payload(result))))
    assert rebuilt == result


def test_result_payload_roundtrip_with_optional_fields_unset():
    result = _result(
        data_sent_reachable=None, data_received_reachable=None, offered_load_kbps=None
    )
    rebuilt = result_from_payload(json.loads(json.dumps(result_to_payload(result))))
    assert rebuilt == result


def test_result_payload_rejects_unknown_fields():
    payload = result_to_payload(_result())
    payload["warp_factor"] = 9
    with pytest.raises(TypeError):
        result_from_payload(payload)


# -- the one-step rebuild ---------------------------------------------------


def _constructed(payload):
    fields = dict(payload)
    if "drop_reasons" in fields:
        fields["drop_reasons"] = dict(fields["drop_reasons"])
    return SimulationResult(**fields)


def _assert_same_record(rebuilt, constructed):
    assert type(rebuilt) is SimulationResult
    assert rebuilt == constructed
    # Same values, same instance-dict order as the constructor leaves.
    assert list(vars(rebuilt).items()) == list(vars(constructed).items())


@pytest.fixture(scope="module")
def tiny_result():
    from repro.scenarios.builder import run_scenario
    from repro.scenarios.presets import tiny_scenario

    return run_scenario(tiny_scenario(seed=2).but(duration=10.0))


def test_rebuild_equals_the_constructor_on_a_real_run(tiny_result):
    payload = json.loads(json.dumps(result_to_payload(tiny_result)))
    rebuilt = result_from_payload(payload)
    _assert_same_record(rebuilt, _constructed(payload))
    assert rebuilt == tiny_result


_OPTIONAL = (
    "drop_reasons",
    "offered_load_kbps",
    "throughput_kbps",
    "data_sent_reachable",
    "data_received_reachable",
)


@settings(max_examples=100, deadline=None)
@given(result=simulation_results, absent=st.sets(st.sampled_from(_OPTIONAL)))
def test_rebuild_equals_the_constructor_on_any_payload(result, absent):
    payload = json.loads(json.dumps(result_to_payload(result)))
    for name in absent:
        del payload[name]
    _assert_same_record(result_from_payload(payload), _constructed(payload))


def test_rebuilt_result_stays_frozen():
    rebuilt = result_from_payload(result_to_payload(_result()))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rebuilt.data_sent = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del rebuilt.data_sent


def test_rebuild_copies_drop_reasons_and_defaults_absent_fields():
    payload = result_to_payload(_result())
    rebuilt = result_from_payload(payload)
    assert rebuilt.drop_reasons == payload["drop_reasons"]
    assert rebuilt.drop_reasons is not payload["drop_reasons"]
    for name in _OPTIONAL:
        del payload[name]
    first, second = result_from_payload(payload), result_from_payload(payload)
    assert first == _constructed(payload)
    assert first.drop_reasons == {} and first.offered_load_kbps is None
    assert first.throughput_kbps == 0.0 and first.data_sent_reachable is None
    # A fresh {} each time, as default_factory gives.
    first.drop_reasons["leak"] = 1
    assert second.drop_reasons == {} and result_from_payload(payload).drop_reasons == {}


@pytest.mark.parametrize("change", ["unknown", "missing"])
def test_rebuild_raises_the_constructors_type_error(change):
    payload = result_to_payload(_result())
    if change == "unknown":
        payload["warp_factor"] = 9
    else:
        del payload["data_sent"]
    with pytest.raises(TypeError) as expected:
        SimulationResult(**payload)
    with pytest.raises(TypeError) as raised:
        result_from_payload(payload)
    assert str(raised.value) == str(expected.value)


def test_entry_missing_a_required_result_field_is_invalidated(tmp_path):
    cache = ResultCache(tmp_path)
    key = scenario_hash(_config())
    path = cache.put(key, _result())
    entry = json.loads(path.read_text())
    del entry["result"]["link_breaks"]
    path.write_text(json.dumps(entry))
    assert cache.get(key) is None
    assert cache.stats.invalidated == 1 and cache.stats.misses == 1
    assert not path.exists()


# -- the on-disk store ------------------------------------------------------


def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    key = scenario_hash(_config())
    assert cache.get(key) is None
    assert cache.stats.misses == 1
    cache.put(key, _result())
    assert key in cache
    assert cache.get(key) == _result()
    assert cache.stats.hits == 1
    assert cache.stats.stores == 1
    assert len(cache) == 1


def test_cache_survives_reopen(tmp_path):
    key = scenario_hash(_config())
    ResultCache(tmp_path).put(key, _result())
    assert ResultCache(tmp_path).get(key) == _result()


def test_corrupt_entry_is_invalidated(tmp_path):
    cache = ResultCache(tmp_path)
    key = scenario_hash(_config())
    path = cache.put(key, _result())
    path.write_text("{ truncated")
    assert cache.get(key) is None
    assert cache.stats.invalidated == 1
    assert not path.exists()  # deleted, not left to fail again


def test_foreign_version_entry_is_invalidated(tmp_path):
    cache = ResultCache(tmp_path)
    key = scenario_hash(_config())
    path = cache.put(key, _result())
    entry = json.loads(path.read_text())
    entry["format_version"] = CACHE_FORMAT_VERSION + 1
    path.write_text(json.dumps(entry))
    assert cache.get(key) is None
    assert cache.stats.invalidated == 1


def test_entry_with_unknown_result_fields_is_invalidated(tmp_path):
    # A result record from a future refactor must not half-load.
    cache = ResultCache(tmp_path)
    key = scenario_hash(_config())
    path = cache.put(key, _result())
    entry = json.loads(path.read_text())
    entry["result"]["brand_new_counter"] = 7
    path.write_text(json.dumps(entry))
    assert cache.get(key) is None
    assert cache.stats.invalidated == 1


def test_clear_empties_the_store(tmp_path):
    cache = ResultCache(tmp_path)
    for seed in (1, 2, 3):
        cache.put(scenario_hash(_config(seed=seed)), _result())
    assert len(cache) == 3
    assert cache.clear() == 3
    assert len(cache) == 0


def test_entry_larger_than_one_read_chunk_round_trips(tmp_path):
    cache = ResultCache(tmp_path)
    key = scenario_hash(_config())
    big = _result(drop_reasons={f"reason-{index:05d}": index for index in range(4000)})
    path = cache.put(key, big)
    assert path.stat().st_size > 64 * 1024
    assert cache.get(key) == big
    assert cache.stats.invalidated == 0


def test_read_only_store_still_hits(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    key = scenario_hash(_config())
    path = cache.put(key, _result())

    def refuse(*args, **kwargs):
        raise PermissionError(errno.EROFS, "read-only file system")

    monkeypatch.setattr("repro.analysis.cache.os.utime", refuse)
    assert cache.get(key) == _result()
    assert (cache.stats.hits, cache.stats.invalidated) == (1, 0)
    assert path.exists()


def test_failed_store_leaves_no_temp_file(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    key = scenario_hash(_config())

    def disk_full(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("repro.analysis.cache.os.replace", disk_full)
    with pytest.raises(OSError):
        cache.put(key, _result())
    assert list(tmp_path.glob("*/*.tmp.*")) == []
    assert key not in cache
    assert cache.stats.stores == 0
