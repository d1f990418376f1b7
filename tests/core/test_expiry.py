"""Unit tests for route-expiry timeout policies."""

import pytest

from repro.core.config import DsrConfig, ExpiryMode
from repro.core.expiry import (
    AdaptiveTimeout,
    NoExpiry,
    StaticTimeout,
    make_timeout_policy,
)


def test_no_expiry_never_times_out():
    policy = NoExpiry()
    policy.on_route_break(5.0, now=10.0)
    policy.on_link_break(now=10.0)
    assert policy.timeout(100.0) is None


def test_static_timeout_constant():
    policy = StaticTimeout(10.0)
    assert policy.timeout(0.0) == 10.0
    policy.on_route_break(1.0, now=5.0)
    assert policy.timeout(1000.0) == 10.0


def test_static_timeout_validation():
    with pytest.raises(ValueError):
        StaticTimeout(0.0)


def test_adaptive_no_breaks_means_no_expiry():
    policy = AdaptiveTimeout(alpha=2.0, min_timeout=1.0)
    assert policy.timeout(50.0) is None


def test_adaptive_uses_alpha_times_average_lifetime():
    policy = AdaptiveTimeout(alpha=2.0, min_timeout=1.0)
    policy.on_route_break(4.0, now=10.0)
    policy.on_route_break(6.0, now=10.0)
    policy.on_link_break(now=10.0)
    # avg lifetime 5.0, alpha 2.0 -> 10.0; time since break 0.
    assert policy.timeout(10.0) == pytest.approx(10.0)


def test_adaptive_second_term_grows_in_quiet_periods():
    """The paper's correction: during long gaps between breaks the timeout
    tracks the time since the last break instead of a stale average."""
    policy = AdaptiveTimeout(alpha=2.0, min_timeout=1.0)
    policy.on_route_break(1.0, now=10.0)
    policy.on_link_break(now=10.0)
    # alpha * avg = 2.0 but 30 s have passed since the last break.
    assert policy.timeout(40.0) == pytest.approx(30.0)


def test_adaptive_minimum_clamp():
    policy = AdaptiveTimeout(alpha=2.0, min_timeout=1.0)
    policy.on_route_break(0.1, now=1.0)
    policy.on_link_break(now=1.0)
    assert policy.timeout(1.0) == 1.0


def test_adaptive_average_is_running_mean():
    policy = AdaptiveTimeout(alpha=2.0, min_timeout=1.0)
    for lifetime in (2.0, 4.0, 6.0):
        policy.on_route_break(lifetime, now=0.0)
    assert policy.average_lifetime == pytest.approx(4.0)
    assert policy.breaks_observed == 3


def test_adaptive_negative_lifetime_clamped():
    policy = AdaptiveTimeout(alpha=2.0, min_timeout=1.0)
    policy.on_route_break(-3.0, now=0.0)
    assert policy.average_lifetime == 0.0


def test_adaptive_validation():
    with pytest.raises(ValueError):
        AdaptiveTimeout(alpha=0.0, min_timeout=1.0)
    with pytest.raises(ValueError):
        AdaptiveTimeout(alpha=2.0, min_timeout=0.0)


def test_factory_dispatch():
    assert isinstance(make_timeout_policy(DsrConfig()), NoExpiry)
    static = make_timeout_policy(
        DsrConfig(expiry_mode=ExpiryMode.STATIC, static_timeout=7.0)
    )
    assert isinstance(static, StaticTimeout) and static.value == 7.0
    adaptive = make_timeout_policy(
        DsrConfig(expiry_mode=ExpiryMode.ADAPTIVE, adaptive_alpha=3.0)
    )
    assert isinstance(adaptive, AdaptiveTimeout) and adaptive.alpha == 3.0
