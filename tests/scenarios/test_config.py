"""Unit tests for scenario configuration."""

import copy

import pytest

from repro.errors import ConfigurationError
from repro.scenarios.builder import run_scenario
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.presets import tiny_scenario


def test_defaults_match_paper_section_4_1():
    config = ScenarioConfig()
    assert config.num_nodes == 100
    assert (config.field_width, config.field_height) == (2200.0, 600.0)
    assert config.duration == 500.0
    assert config.num_sessions == 25
    assert config.payload_bytes == 512
    assert config.rx_range == 250.0
    assert config.max_speed == 20.0


def test_offered_load_computation():
    config = ScenarioConfig(num_sessions=25, packet_rate=3.0, payload_bytes=512)
    # 25 sessions * 3 pkt/s * 512 B * 8 b/B = 307.2 kb/s
    assert config.offered_load_kbps == pytest.approx(307.2)


def test_but_creates_modified_copy():
    config = ScenarioConfig()
    other = config.but(pause_time=100.0, seed=9)
    assert other.pause_time == 100.0 and other.seed == 9
    assert config.pause_time == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_nodes": 1},
        {"duration": 0.0},
        {"num_sessions": -1},
        {"num_sessions": 200},
        {"packet_rate": 0.0},
        {"protocol": "olsr"},
        {"protocol": "flooding"},
        {"radio_profile": "longhaul"},
    ],
)
def test_validation(kwargs):
    with pytest.raises(ConfigurationError):
        ScenarioConfig(**kwargs)


def test_neighbor_index_accepts_known_backends():
    for index in ("auto", "allpairs", "grid"):
        assert ScenarioConfig(neighbor_index=index).neighbor_index == index


def test_neighbor_index_rejects_unknown_backend():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(neighbor_index="kd-tree")


@pytest.mark.parametrize(
    "changes",
    [
        {"pause_time": -5},
        {"max_speed": -1},
        {"min_speed": 30, "max_speed": 20},
        {"field_width": 0},
        {"neighbor_quantum": 0},
        {"ifq_capacity": 0},
        {"payload_bytes": 0},
        {"start_window": -1},
        {"rx_range": 0},
        {"cs_range": 100},
    ],
    ids=lambda changes: ",".join(changes),
)
def test_a_value_the_run_refuses_is_refused_at_construction(changes):
    base = tiny_scenario().but(duration=2)
    unchecked = copy.copy(base)
    for name, value in changes.items():  # past the check, as it once let it
        object.__setattr__(unchecked, name, value)
    with pytest.raises((ConfigurationError, ValueError)):
        run_scenario(unchecked)
    with pytest.raises(ConfigurationError):
        base.but(**changes)


@pytest.mark.parametrize(
    "changes",
    [
        {"mobility_model": "gauss_markov", "pause_time": -5, "min_speed": 0},
        {"mobility_model": "rpgm", "min_speed": 30, "max_speed": 20},
        {"radio_profile": "urban", "rx_range": 0, "cs_range": 0},
    ],
    ids=["gauss_markov", "rpgm", "urban"],
)
def test_a_field_the_named_model_ignores_is_not_checked(changes):
    assert run_scenario(tiny_scenario().but(duration=2, **changes)).duration == 2
