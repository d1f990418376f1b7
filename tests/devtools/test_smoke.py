"""Smoke tests: the shipped tree is clean, and a known violation is caught.

These are the acceptance criteria for the linter as a CI gate: running
``repro-lint src/repro`` on the repository must exit 0, and a fixture
with a CONC001 violation must exit non-zero.
"""

from pathlib import Path

from repro.devtools.lint import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def test_cli_exits_zero_on_shipped_tree(capsys):
    exit_code = main([str(SRC_REPRO)])
    out = capsys.readouterr().out
    assert exit_code == 0, out
    assert "no findings" in out


def test_cli_exits_nonzero_on_conc001_violation(capsys):
    exit_code = main([str(FIXTURES / "conc001" / "bad.py")])
    assert exit_code == 1
    assert "CONC001" in capsys.readouterr().out
