"""Unit tests for the radio-profile subsystem.

The load-bearing contract is back-compat: resolving the default ``wavelan``
profile must yield exactly the objects the builder constructed before
profiles existed (same propagation, same loss model, same timing, same
energy draws, no capture), so golden metrics and cache entries stay valid.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mac.timing import MacTiming
from repro.phy.energy import EnergyModel
from repro.phy.profiles import (
    PROFILES,
    URBAN,
    WAVELAN,
    CaptureModel,
    ProbabilisticReception,
    RadioProfile,
    build_loss_model,
    get_profile,
    profile_names,
    resolve_profile,
)
from repro.scenarios.config import ScenarioConfig

from tests.helpers import lone_sender_deliveries


# -- registry ----------------------------------------------------------------


def test_registry_contains_the_two_presets():
    assert profile_names() == ("wavelan", "urban")
    assert get_profile("wavelan") is WAVELAN
    assert get_profile("urban") is URBAN


def test_unknown_profile_is_rejected():
    for name in ("bluetooth", "longhaul"):
        with pytest.raises(ConfigurationError, match="unknown radio profile"):
            get_profile(name)


def test_config_validates_profile_name():
    for name in ("bluetooth", "longhaul"):
        with pytest.raises(ConfigurationError, match="unknown radio profile"):
            ScenarioConfig(radio_profile=name)


def test_profile_validation():
    with pytest.raises(ConfigurationError):
        RadioProfile(name="bad", rx_range=0.0, cs_range=100.0, bitrate=1e6)
    with pytest.raises(ConfigurationError):
        RadioProfile(name="bad", rx_range=200.0, cs_range=100.0, bitrate=1e6)
    with pytest.raises(ConfigurationError):
        RadioProfile(name="bad", rx_range=100.0, cs_range=200.0, bitrate=0.0)
    with pytest.raises(ConfigurationError):
        RadioProfile(
            name="bad",
            rx_range=100.0,
            cs_range=200.0,
            bitrate=1e6,
            capture_threshold_db=-1.0,
        )


# -- wavelan back-compat -----------------------------------------------------


def test_wavelan_matches_every_legacy_default():
    assert WAVELAN.rx_range == 250.0
    assert WAVELAN.cs_range == 550.0
    assert WAVELAN.capture_threshold_db is None
    assert WAVELAN.reliable_fraction == 1.0
    # Timing: from_profile must reproduce MacTiming() field for field.
    assert MacTiming.from_profile(WAVELAN) == MacTiming()
    assert MacTiming.from_profile(WAVELAN, use_eifs=True) == MacTiming(
        use_eifs=True
    )
    # Energy: from_profile must reproduce EnergyModel() field for field.
    assert EnergyModel.from_profile(WAVELAN) == EnergyModel()


def test_wavelan_resolution_honours_legacy_range_knobs():
    config = ScenarioConfig(rx_range=100.0, cs_range=220.0)
    profile = resolve_profile(config)
    assert (profile.rx_range, profile.cs_range) == (100.0, 220.0)
    # Non-default profiles are authoritative: config scalars do not leak in.
    urban = resolve_profile(config.but(radio_profile="urban"))
    assert (urban.rx_range, urban.cs_range) == (URBAN.rx_range, URBAN.cs_range)


def test_default_wavelan_loss_model_is_none():
    config = ScenarioConfig()
    assert build_loss_model(resolve_profile(config), config) is None


def test_grey_zone_still_builds_the_legacy_edge_loss_model():
    config = ScenarioConfig(grey_zone_fraction=0.2)
    model = build_loss_model(resolve_profile(config), config)
    # The pre-profile ramp (no base loss, zero edge probability), so
    # grey-zone runs stay bit-identical (test_grey_zone_golden.py).
    assert model == ProbabilisticReception(rx_range=250.0, reliable_fraction=0.8)


def test_grey_zone_overrides_the_profile_loss_shape():
    config = ScenarioConfig(radio_profile="urban", grey_zone_fraction=0.1)
    model = build_loss_model(resolve_profile(config), config)
    assert isinstance(model, ProbabilisticReception)
    assert model.reliable_fraction == pytest.approx(0.9)
    assert model.rx_range == URBAN.rx_range


# -- probabilistic reception -------------------------------------------------


def test_lossy_profiles_build_probabilistic_reception():
    config = ScenarioConfig(radio_profile="urban")
    profile = resolve_profile(config)
    model = build_loss_model(profile, config)
    assert isinstance(model, ProbabilisticReception)
    assert model.rx_range == profile.rx_range
    assert model.reliable_fraction == profile.reliable_fraction


def test_link_loss_scales_every_distance():
    config = ScenarioConfig(link_loss=0.25)
    model = build_loss_model(resolve_profile(config), config)
    assert isinstance(model, ProbabilisticReception)
    assert model.delivery_probability(0.0) == pytest.approx(0.75)
    assert model.delivery_probability(250.0) == pytest.approx(0.75)


def test_delivery_probability_ramp_shape():
    model = ProbabilisticReception(
        rx_range=100.0,
        reliable_fraction=0.5,
        edge_delivery_probability=0.1,
        base_delivery=0.8,
    )
    assert model.delivery_probability(10.0) == pytest.approx(0.8)
    assert model.delivery_probability(50.0) == pytest.approx(0.8)
    # Midpoint of the grey zone: ramp = (1 + 0.1) / 2 = 0.55.
    assert model.delivery_probability(75.0) == pytest.approx(0.8 * 0.55)
    assert model.delivery_probability(100.0) == pytest.approx(0.8 * 0.1)
    assert model.delivery_probability(1000.0) == pytest.approx(0.8 * 0.1)


def test_certain_delivery_skips_the_rng_draw():
    # Draw-sequence identity: p >= 1 must not consume a draw, so a pure
    # grey zone draws only inside the ramp (the pre-profile discipline): a
    # listener of the reliable zone leaves the generator untouched.
    model = ProbabilisticReception(rx_range=250.0, reliable_fraction=0.8)
    assert model.delivery_probability(50.0) == 1.0
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    assert lone_sender_deliveries([50.0], model, rng, frames=20) == [20]
    assert rng.bit_generator.state == before


def test_probabilistic_reception_validation():
    with pytest.raises(ConfigurationError):
        ProbabilisticReception(rx_range=100.0, base_delivery=0.0)
    with pytest.raises(ConfigurationError):
        ProbabilisticReception(rx_range=-1.0)


# -- capture -----------------------------------------------------------------


def test_capture_model_power_is_log_distance():
    model = CaptureModel(threshold_db=10.0, path_loss_exponent=3.0)
    assert model.power_db(1.0) == 0.0
    assert model.power_db(10.0) == pytest.approx(-30.0)
    # Below one metre the far-field proxy clamps instead of diverging.
    assert model.power_db(0.0) == 0.0


def test_capture_survival_threshold():
    model = CaptureModel(threshold_db=10.0, path_loss_exponent=2.0)
    near = model.power_db(10.0)  # -20 dB
    far = model.power_db(100.0)  # -40 dB
    assert model.survives(near, far)  # 20 dB margin beats 10 dB threshold
    assert not model.survives(far, near)
    assert not model.survives(near, model.power_db(20.0))  # only ~6 dB margin


def test_profile_capture_factory():
    assert WAVELAN.capture() is None
    capture = URBAN.capture()
    assert isinstance(capture, CaptureModel)
    assert capture.threshold_db == URBAN.capture_threshold_db
    assert capture.path_loss_exponent == URBAN.path_loss_exponent


# -- per-profile derived models ----------------------------------------------


def test_profiles_drive_timing_and_energy():
    for profile in PROFILES.values():
        timing = MacTiming.from_profile(profile)
        assert timing.bitrate == profile.bitrate
        assert timing.plcp == profile.plcp
        # Airtime scales inversely with bitrate.
        assert timing.airtime(100) == pytest.approx(
            profile.plcp + 800 / profile.bitrate
        )
        energy = EnergyModel.from_profile(profile)
        assert energy.tx_power == profile.tx_power_w
        assert energy.rx_power == profile.rx_power_w
        assert energy.idle_power == profile.idle_power_w


def test_lossy_profile_delivery_is_seed_stable():
    config = ScenarioConfig(radio_profile="urban", link_loss=0.1)
    model = build_loss_model(resolve_profile(config), config)
    distances = (10.0, 60.0, 90.0, 110.0, 119.0)

    def run():
        return lone_sender_deliveries(distances, model, np.random.default_rng(42))

    first = run()
    assert first == run()
    assert all(0 < count < 200 for count in first)  # every one of them lossy
