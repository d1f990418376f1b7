"""Unit tests for multi-run aggregation."""

import pytest

from repro.analysis.stats import aggregate, mean_confidence_interval
from repro.metrics.collector import SimulationResult


def _result(received, sent=100, delay_sum=10.0):
    return SimulationResult(
        duration=100.0,
        data_sent=sent,
        data_received=received,
        duplicate_deliveries=0,
        delay_sum=delay_sum,
        mac_control_tx=50,
        routing_tx=50,
        data_tx=200,
        mac_failures=0,
        ifq_drops=0,
        rreq_sent=5,
        replies_received=4,
        good_replies=2,
        cache_replies_received=1,
        replies_sent_from_cache=1,
        replies_sent_from_target=3,
        cache_hits=10,
        invalid_cache_hits=2,
        link_breaks=7,
        salvages=1,
    )


def test_mean_confidence_interval_basics():
    mean, half = mean_confidence_interval([1.0, 2.0, 3.0])
    assert mean == 2.0
    assert half > 0


def test_single_value_has_zero_half_width():
    mean, half = mean_confidence_interval([5.0])
    assert (mean, half) == (5.0, 0.0)


def test_empty_values():
    assert mean_confidence_interval([]) == (0.0, 0.0)


def test_aggregate_averages_derived_metrics():
    agg = aggregate([_result(80), _result(90)])
    assert agg.runs == 2
    assert agg["pdf"] == pytest.approx(0.85)
    assert agg.means["overhead"] == pytest.approx((100 / 80 + 100 / 90) / 2)


def test_aggregate_skips_infinite_values():
    agg = aggregate([_result(0), _result(100)])
    # overhead is inf for the zero-delivery run; the mean uses finite values.
    assert agg.means["overhead"] == pytest.approx(1.0)


def test_aggregate_requires_results():
    with pytest.raises(ValueError):
        aggregate([])


def test_welch_t_distinguishes_separated_samples():
    from repro.analysis.stats import welch_t_statistic

    a = [0.90, 0.91, 0.92, 0.89, 0.90]
    b = [0.70, 0.72, 0.71, 0.69, 0.73]
    t, dof = welch_t_statistic(a, b)
    assert abs(t) > 10
    assert dof > 0


def test_welch_t_on_overlapping_samples():
    from repro.analysis.stats import welch_t_statistic

    a = [0.90, 0.85, 0.95, 0.80, 0.99]
    b = [0.89, 0.86, 0.93, 0.82, 0.97]
    t, dof = welch_t_statistic(a, b)
    assert dof > 0
    assert abs(t) < 2.776  # below compare()'s default threshold: seed noise


def test_welch_t_degenerate_inputs():
    from repro.analysis.stats import welch_t_statistic

    assert welch_t_statistic([1.0], [2.0, 3.0]) == (0.0, 0.0)
    assert welch_t_statistic([1.0, 1.0], [1.0, 1.0]) == (0.0, 0.0)
