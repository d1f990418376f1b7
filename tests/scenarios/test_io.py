"""Round-trip tests for scenario (de)serialisation."""

import json

import pytest

from repro.core.config import DsrConfig
from repro.errors import ConfigurationError
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.io import (
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


def _config():
    return ScenarioConfig(
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


def test_dict_roundtrip():
    config = _config()
    assert scenario_from_dict(scenario_to_dict(config)) == config


def test_file_roundtrip(tmp_path):
    config = _config()
    path = save_scenario(config, tmp_path / "scenario.json")
    assert load_scenario(path) == config


def test_expiry_mode_survives_roundtrip():
    config = ScenarioConfig(dsr=DsrConfig.with_static_expiry(12.0))
    rebuilt = scenario_from_dict(scenario_to_dict(config))
    assert rebuilt.dsr.expiry_mode == config.dsr.expiry_mode
    assert rebuilt.dsr.static_timeout == 12.0


def test_unknown_fields_rejected():
    payload = scenario_to_dict(_config())
    payload["warp_drive"] = True
    with pytest.raises(ConfigurationError):
        scenario_from_dict(payload)
    payload = scenario_to_dict(_config())
    payload["dsr"]["warp_drive"] = True
    with pytest.raises(ConfigurationError):
        scenario_from_dict(payload)


@pytest.mark.parametrize(
    "field, value", [("protocol", "flooding"), ("radio_profile", "longhaul")]
)
def test_saved_config_with_a_removed_extension_is_rejected(tmp_path, field, value):
    path = save_scenario(_config(), tmp_path / "scenario.json")
    saved = json.loads(path.read_text())
    saved[field] = value
    path.write_text(json.dumps(saved))
    with pytest.raises(ConfigurationError):
        load_scenario(path)


def test_loaded_scenario_runs_identically():
    from repro.scenarios.builder import run_scenario

    config = ScenarioConfig(
        num_nodes=10,
        field_width=500.0,
        field_height=300.0,
        duration=15.0,
        num_sessions=3,
        seed=9,
    )
    rebuilt = scenario_from_dict(scenario_to_dict(config))
    assert run_scenario(config) == run_scenario(rebuilt)


def test_neighbor_index_flows_through_the_cache_key():
    """The index knob must reach the canonical encoding: two configs
    differing only in it must round-trip and encode differently."""
    from repro.scenarios.io import scenario_canonical_json

    auto = _config()
    grid = auto.but(neighbor_index="grid")
    assert scenario_from_dict(scenario_to_dict(grid)).neighbor_index == "grid"
    assert '"neighbor_index":"grid"' in scenario_canonical_json(grid)
    assert scenario_canonical_json(auto) != scenario_canonical_json(grid)
