"""Fixture-driven tests: every rule has a positive, clean, and suppressed case."""

from pathlib import Path

import pytest

from repro.devtools.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path("tests") / "devtools" / "fixtures"

# (rule code, fixture directory holding bad/good/suppressed.py)
CASES = [
    ("CONC001", FIXTURES / "conc001"),
    ("CONC003", FIXTURES / "conc003"),
]

IDS = [code for code, _ in CASES]

# What ``repro-lint <fixture>/bad.py`` prints from the repository root,
# finding lines only.
BAD_FINDINGS = {
    "CONC001": [
        "tests/devtools/fixtures/conc001/bad.py:18:16: CONC001 Counter._total is read "
        "without holding self._lock (written under it in add() at line 14)",
        "tests/devtools/fixtures/conc001/bad.py:21:16: CONC001 Counter._last is read "
        "without holding self._lock (declared '# guarded-by: _lock')",
    ],
    "CONC003": [
        "tests/devtools/fixtures/conc003/bad.py:13:13: CONC003 blocking call time.sleep "
        "while holding self._lock in Poller.tick()",
        "tests/devtools/fixtures/conc003/bad.py:17:13: CONC003 call to self._backoff() "
        "while holding self._lock; it performs blocking time.sleep (Poller.settle())",
        "tests/devtools/fixtures/conc003/bad.py:24:9: CONC003 blocking call time.sleep "
        "in Poller._report_locked(), which by the *_locked convention runs with the "
        "class lock held",
    ],
}


@pytest.fixture(autouse=True)
def _at_repo_root(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


@pytest.mark.parametrize(("code", "fixture_dir"), CASES, ids=IDS)
def test_bad_fixture_is_flagged(code, fixture_dir):
    result = lint_paths([fixture_dir / "bad.py"])
    assert [finding.render() for finding in result.findings] == BAD_FINDINGS[code]


@pytest.mark.parametrize(("code", "fixture_dir"), CASES, ids=IDS)
def test_good_fixture_is_clean(code, fixture_dir):
    result = lint_paths([fixture_dir / "good.py"])
    assert result.clean, [finding.render() for finding in result.findings]


@pytest.mark.parametrize(("code", "fixture_dir"), CASES, ids=IDS)
def test_suppression_comment_is_honoured(code, fixture_dir):
    result = lint_paths([fixture_dir / "suppressed.py"])
    assert result.clean, [finding.render() for finding in result.findings]
