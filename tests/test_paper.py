"""Tests for the one-call paper reproduction module."""

import dataclasses

import pytest

from repro.analysis.runner import SweepEngine
from repro.paper import SUPPLEMENT_TABLES, PaperReport, reproduce, supplement


@pytest.fixture(scope="module")
def quick_report():
    return reproduce(scale="quick", seeds=[1], fig2_variants=["DSR", "AllTechniques"])


def test_report_structure(quick_report):
    assert isinstance(quick_report, PaperReport)
    assert quick_report.scale == "quick"
    # Fig 1: no-timeout + adaptive + 5 statics.
    assert len(quick_report.fig1) == 7
    assert quick_report.fig1[0].label == "no timeout"
    assert set(quick_report.fig2) == {"DSR", "AllTechniques"}
    assert len(quick_report.fig2["DSR"]) == 3  # three pause points
    assert set(quick_report.table3) == {
        "DSR",
        "WiderError",
        "AdaptiveExpiry",
        "NegativeCache",
        "AllTechniques",
    }
    assert set(quick_report.fig4) == {"DSR", "AllTechniques"}


def test_report_values_in_domain(quick_report):
    for point in quick_report.fig1:
        assert 0.0 <= point.metric("pdf") <= 1.0
    for points in quick_report.fig2.values():
        for point in points:
            assert 0.0 <= point.metric("pdf") <= 1.0
    for aggregate in quick_report.table3.values():
        assert 0.0 <= aggregate["good_replies_pct"] <= 100.0


def test_markdown_rendering(quick_report):
    markdown = quick_report.to_markdown()
    assert "# Reproduction report" in markdown
    assert "Figure 1" in markdown
    assert "Table 3" in markdown
    assert "Figure 4" in markdown
    assert "AllTechniques" in markdown


def test_report_checks_the_shape_of_every_artifact(quick_report):
    expectations = quick_report.expectations()
    assert {artifact for artifact, _, _ in expectations} == {
        "Figure 1",
        "Figure 2",
        "Table 3",
        "Figure 4",
    }
    assert len(expectations) == 9
    markdown = quick_report.to_markdown()
    for artifact, claim, holds in expectations:
        assert f"- [{'pass' if holds else 'FAIL'}] {artifact}: {claim}" in markdown


def test_a_shape_that_does_not_hold_is_reported_as_a_failure(quick_report):
    table3 = dict(quick_report.table3, AllTechniques=quick_report.table3["DSR"])
    doctored = dataclasses.replace(quick_report, table3=table3)
    failed = [claim for artifact, claim, holds in doctored.expectations() if not holds]
    assert "AllTechniques good replies > DSR good replies" in failed
    assert "- [FAIL] Table 3: AllTechniques good replies" in doctored.to_markdown()


def test_base_vs_combined_claims_need_both_curves():
    report = reproduce(scale="quick", seeds=[1], fig2_variants=["DSR"], fig4_variants=("DSR",))
    claims = [claim for _, claim, _ in report.expectations()]
    assert not any("AllTechniques" in claim and "pause 0" in claim for claim in claims)
    assert "## Shape expectations" in report.to_markdown()


def test_rejects_unknown_scale():
    with pytest.raises(ValueError):
        reproduce(scale="galactic")
    with pytest.raises(ValueError):
        supplement(scale="galactic")


def test_supplement_shares_the_paper_variants_runs_with_reproduce():
    engine = SweepEngine(processes=1)
    report = reproduce(
        scale="quick", seeds=[1], fig2_variants=["DSR"], fig4_variants=("DSR",), engine=engine
    )
    messages = []
    extra = supplement(scale="quick", seeds=[1], progress=messages.append, engine=engine)
    assert list(extra.tables) == list(SUPPLEMENT_TABLES)
    assert [m.removeprefix("supplement: ") for m in messages] == list(SUPPLEMENT_TABLES)
    # Rows that are paper variants at pause 0 are the runs Table 3 made.
    assert extra.tables["AODV vs DSR"]["DSR (base)"] == report.table3["DSR"]
    assert extra.tables["Cache capacity"]["AllTechniques / 64 paths"] == (
        report.table3["AllTechniques"]
    )
    rows = sum(len(table) for table in extra.tables.values())
    executed = extra.sweep_stats["executed"] - report.sweep_stats["executed"]
    assert rows == 25 and executed == 15  # the other 10 rows were already run
    markdown = extra.to_markdown()
    for title in SUPPLEMENT_TABLES:
        assert f"## {title}" in markdown
    assert len(extra.expectations()) == 13
    assert "## Shape expectations" in markdown


def test_progress_callback_invoked():
    messages = []
    reproduce(
        scale="quick",
        seeds=[1],
        progress=messages.append,
        fig2_variants=["DSR"],
        fig4_variants=("DSR",),
    )
    assert any("figure 1" in message for message in messages)
    assert any("table 3" in message for message in messages)


def test_reproduce_reports_sweep_stats(quick_report):
    stats = quick_report.sweep_stats
    assert stats["executed"] > 0
    # Figure 1's "no timeout" point, Figure 2's pause-0 points, Table 3 and
    # Figure 4's 3 pkt/s points overlap: one engine must dedupe them.
    assert stats["deduped"] > 0
    assert stats["retries"] == 0


def test_reproduce_warm_cache_executes_nothing(tmp_path):
    kwargs = dict(
        scale="quick",
        seeds=[1],
        fig2_variants=["DSR"],
        fig4_variants=("DSR",),
    )
    fresh_engine = lambda: SweepEngine.create(processes=1, cache_dir=tmp_path / "cache")
    cold = reproduce(engine=fresh_engine(), **kwargs)
    warm = reproduce(engine=fresh_engine(), **kwargs)
    assert cold.sweep_stats["executed"] > 0
    assert warm.sweep_stats["executed"] == 0
    assert warm.sweep_stats["cache_hits"] > 0
    # Cached reproduction is byte-identical to the cold one.
    assert warm.fig1 == cold.fig1
    assert warm.fig2 == cold.fig2
    assert warm.table3 == cold.table3
    assert warm.fig4 == cold.fig4
