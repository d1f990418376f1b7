"""Randomised whole-system fuzzing.

Hypothesis drives small random scenarios through the full stack and checks
the global invariants no configuration may violate: the run completes, the
accounting balances, and every derived metric stays in its domain.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DsrConfig, ExpiryMode
from repro.scenarios.builder import run_scenario
from repro.scenarios.config import ScenarioConfig

dsr_configs = st.builds(
    DsrConfig,
    reply_from_cache=st.booleans(),
    salvaging=st.booleans(),
    gratuitous_repair=st.booleans(),
    promiscuous_listening=st.booleans(),
    route_shortening=st.booleans(),
    nonpropagating_requests=st.booleans(),
    wider_error=st.booleans(),
    expiry_mode=st.sampled_from(list(ExpiryMode)),
    static_timeout=st.floats(min_value=0.5, max_value=20.0),
    negative_cache=st.booleans(),
    freshness_tags=st.booleans(),
    snoop_errors=st.booleans(),
    reply_storm_prevention=st.booleans(),
    use_link_cache=st.booleans(),
)

scenarios = st.builds(
    ScenarioConfig,
    num_nodes=st.integers(min_value=4, max_value=12),
    field_width=st.floats(min_value=300.0, max_value=900.0),
    field_height=st.floats(min_value=200.0, max_value=500.0),
    duration=st.just(8.0),
    num_sessions=st.integers(min_value=1, max_value=3),
    packet_rate=st.floats(min_value=0.5, max_value=4.0),
    pause_time=st.sampled_from([0.0, 4.0, 20.0]),
    mobility_model=st.sampled_from(["waypoint", "gauss_markov", "rpgm"]),
    rpgm_groups=st.integers(min_value=1, max_value=3),
    grey_zone_fraction=st.sampled_from([0.0, 0.2]),
    protocol=st.sampled_from(["dsr", "aodv"]),
    dsr=dsr_configs,
    seed=st.integers(min_value=0, max_value=2**16),
    start_window=st.just(2.0),
)


@given(config=scenarios)
@settings(max_examples=20, deadline=None)
def test_any_configuration_runs_and_balances(config):
    result = run_scenario(config)
    # Conservation: can't deliver what was never sent.
    assert 0 <= result.data_received <= result.data_sent
    assert 0.0 <= result.packet_delivery_fraction <= 1.0
    assert result.average_delay >= 0.0
    assert result.delay_sum >= 0.0
    assert result.normalized_overhead >= 0.0
    assert 0.0 <= result.pct_good_replies <= 100.0
    assert 0.0 <= result.pct_invalid_cache_hits <= 100.0
    assert result.good_replies <= result.replies_received
    assert result.invalid_cache_hits <= result.cache_hits
    assert all(count >= 0 for count in result.drop_reasons.values())


@given(config=scenarios)
@settings(max_examples=6, deadline=None)
def test_any_configuration_is_deterministic(config):
    assert run_scenario(config) == run_scenario(config)
