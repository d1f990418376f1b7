"""Golden back-compat for the radio-profile subsystem.

The hard contract of :mod:`repro.phy.profiles`: introducing profiles must
not move a single bit of any pre-profile result.  An *explicit*
``radio_profile="wavelan"`` is the same config as the default one, whose
100-node run ``test_index_golden`` pins to the pre-profile golden metrics.
This pins those golden metrics under the explicit profile too, and the
cache-key side of the contract — default-valued post-v1
fields stay out of the canonical JSON, while non-default profiles key
distinct cache entries.
"""

from repro.analysis.cache import scenario_hash
from repro.scenarios.builder import run_scenario
from repro.scenarios.io import (
    scenario_canonical_json,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.scenarios.presets import paper_scenario, tiny_scenario

# Captured from the pre-profile simulator (see tests/integration/
# test_index_golden.py); the wavelan profile must reproduce every field.
GOLDEN = {
    "data_sent": 128,
    "data_received": 119,
    "delay_sum": 5.599070081384597,
    "mac_control_tx": 4995,
    "routing_tx": 1428,
    "data_tx": 663,
    "rreq_sent": 23,
    "link_breaks": 46,
    "cache_hits": 312,
}


def _scenario(**overrides):
    return paper_scenario(pause_time=0.0, seed=7).but(
        duration=12.0, num_sessions=8, **overrides
    )


def test_explicit_wavelan_reproduces_the_golden_metrics_bit_for_bit():
    result = run_scenario(_scenario(radio_profile="wavelan", link_loss=0.0))
    for name, expected in GOLDEN.items():
        assert getattr(result, name) == expected, f"wavelan drift in {name}"


def test_default_config_equals_explicit_wavelan():
    default = run_scenario(_scenario())
    explicit = run_scenario(_scenario(radio_profile="wavelan", link_loss=0.0))
    assert default == explicit  # every SimulationResult field


def test_post_v1_defaults_stay_out_of_the_canonical_json():
    config = _scenario()
    payload = scenario_to_dict(config)
    assert "radio_profile" not in payload
    assert "link_loss" not in payload
    assert "walk_epoch" not in payload
    # The explicit default spells the same canonical bytes — and therefore
    # the same content-addressed cache key as before profiles existed.
    explicit = _scenario(radio_profile="wavelan", link_loss=0.0)
    # The same config, so the same run: test_index_golden's "auto" run.
    assert explicit == config
    assert scenario_canonical_json(config) == scenario_canonical_json(explicit)
    assert scenario_hash(config) == scenario_hash(explicit)


def test_non_default_profile_keys_a_distinct_cache_entry():
    base = _scenario()
    for changed in (
        _scenario(radio_profile="urban"),
        _scenario(link_loss=0.15),
        _scenario(mobility_model="random_walk", walk_epoch=5.0),
    ):
        payload = scenario_to_dict(changed)
        assert scenario_hash(changed) != scenario_hash(base)
        # And the elided-default round trip reproduces the config exactly.
        assert scenario_from_dict(payload) == changed
    assert "radio_profile" in scenario_to_dict(_scenario(radio_profile="urban"))
    assert "link_loss" in scenario_to_dict(_scenario(link_loss=0.15))


def test_elided_payload_round_trips_to_the_default_profile():
    config = _scenario()
    restored = scenario_from_dict(scenario_to_dict(config))
    assert restored == config
    assert restored.radio_profile == "wavelan"
    assert restored.link_loss == 0.0


def test_lossy_profiles_change_metrics():
    """The knobs must actually reach the channel: a lossy run differs."""
    base = run_scenario(tiny_scenario(seed=3).but(duration=15.0))
    lossy = run_scenario(
        tiny_scenario(seed=3).but(duration=15.0, link_loss=0.3)
    )
    assert base != lossy
