"""Tests for variant A/B comparison."""

from repro.analysis.compare import Comparison, compare_results
from repro.metrics.collector import SimulationResult


def _result(received, sent=100):
    return SimulationResult(
        duration=100.0,
        data_sent=sent,
        data_received=received,
        duplicate_deliveries=0,
        delay_sum=received * 0.01,
        mac_control_tx=100,
        routing_tx=100,
        data_tx=200,
        mac_failures=0,
        ifq_drops=0,
        rreq_sent=5,
        replies_received=10,
        good_replies=5,
        cache_replies_received=2,
        replies_sent_from_cache=2,
        replies_sent_from_target=8,
        cache_hits=20,
        invalid_cache_hits=5,
        link_breaks=3,
        salvages=1,
    )


def test_clear_separation_is_significant():
    a = [_result(received) for received in (70, 71, 72, 70, 71)]
    b = [_result(received) for received in (95, 94, 96, 95, 94)]
    comparison = compare_results("base", a, "better", b, seeds=[1, 2, 3, 4, 5])
    pdf = comparison.metrics["pdf"]
    assert pdf.significant
    assert pdf.delta > 0.2


def test_noise_is_not_significant():
    a = [_result(received) for received in (70, 90, 80, 60, 95)]
    b = [_result(received) for received in (72, 88, 79, 65, 92)]
    comparison = compare_results("x", a, "y", b, seeds=[1, 2, 3, 4, 5])
    assert not comparison.metrics["pdf"].significant


def test_single_seed_cannot_be_significant():
    comparison = compare_results("x", [_result(70)], "y", [_result(95)], seeds=[1])
    assert not comparison.metrics["pdf"].significant


def test_format_renders_table():
    a = [_result(70), _result(72)]
    b = [_result(90), _result(91)]
    comparison = compare_results("base", a, "best", b, seeds=[1, 2])
    text = comparison.format()
    assert "metric" in text and "base" in text and "best" in text
    assert "pdf" in text


def test_end_to_end_compare():
    from repro.analysis.compare import compare
    from repro.core.config import DsrConfig
    from repro.scenarios.presets import tiny_scenario

    comparison = compare(
        "base",
        lambda seed: tiny_scenario(dsr=DsrConfig.base(), seed=seed).but(duration=15.0),
        "all",
        lambda seed: tiny_scenario(dsr=DsrConfig.all_techniques(), seed=seed).but(duration=15.0),
        seeds=[1, 2],
    )
    assert isinstance(comparison, Comparison)
    assert set(comparison.metrics) >= {"pdf", "overhead"}
