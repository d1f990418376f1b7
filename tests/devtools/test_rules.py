"""Fixture-driven tests: every rule has a positive, clean, and suppressed case."""

from pathlib import Path

import pytest

from repro.devtools.lint.runner import lint_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# (rule code, fixture directory holding bad/good/suppressed.py)
CASES = [
    ("CONC001", FIXTURES / "conc001"),
    ("CONC003", FIXTURES / "conc003"),
]

IDS = [code for code, _ in CASES]


def _lint(code, path):
    return lint_paths([path], select=[code])


@pytest.mark.parametrize(("code", "fixture_dir"), CASES, ids=IDS)
def test_bad_fixture_is_flagged(code, fixture_dir):
    result = _lint(code, fixture_dir / "bad.py")
    assert result.findings, f"{code} found nothing in its positive fixture"
    assert {finding.code for finding in result.findings} == {code}
    assert all(finding.line >= 1 and finding.col >= 1 for finding in result.findings)


@pytest.mark.parametrize(("code", "fixture_dir"), CASES, ids=IDS)
def test_good_fixture_is_clean(code, fixture_dir):
    result = _lint(code, fixture_dir / "good.py")
    assert result.clean, [finding.render() for finding in result.findings]


@pytest.mark.parametrize(("code", "fixture_dir"), CASES, ids=IDS)
def test_suppression_comment_is_honoured(code, fixture_dir):
    result = _lint(code, fixture_dir / "suppressed.py")
    assert result.clean, [finding.render() for finding in result.findings]
