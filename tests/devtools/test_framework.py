"""Tests for the repro-lint driver: suppressions, findings, the text report,
file handling and exit codes."""

from pathlib import Path

import pytest

from repro.devtools.lint import Finding, lint_paths, lint_source, main

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# One line that breaks both rules: ``self._n`` is guarded by ``_lock`` but
# read under ``_other`` (CONC001), and the sleep runs under ``_other``
# (CONC003); findings sort by column, so CONC003 comes first.  ``{here}`` is
# the comment on that line, ``{above}`` the one on the line before it.
SOURCE = """\
import threading
import time


class C:
    def __init__(self):
        self._lock = threading.Lock()
        self._other = threading.Lock()
        self._n = 0

    def bump(self):
        with self._lock:
            self._n += 1

    def slow(self):
        with self._other:  {above}
            time.sleep(self._n{arg})  {here}
"""


def _codes(here="", above="", arg=""):
    source = SOURCE.format(here=here, above=above, arg=arg)
    return [finding.code for finding in lint_source(source, Path("c.py"))]


class TestSuppressions:
    def test_line_scope_suppresses_only_that_line(self):
        assert _codes() == ["CONC003", "CONC001"]
        assert _codes(here="# repro-lint: disable=CONC003") == ["CONC001"]
        assert _codes(above="# repro-lint: disable=CONC003") == ["CONC003", "CONC001"]

    def test_marker_in_string_literal_is_ignored(self):
        marker = ', "# repro-lint: disable=CONC001,CONC003"'
        assert _codes(arg=marker) == ["CONC003", "CONC001"]

    def test_multiple_codes_one_comment(self):
        assert _codes(here="# repro-lint: disable=CONC001,CONC003") == []
        assert _codes(here="# repro-lint: disable=conc001, CONC003") == []

    def test_justification_ends_the_codes(self):
        for comment in (
            "# repro-lint: disable=CONC001 set once before start",
            "# repro-lint: disable=CONC001 -- set once before start",
            "# repro-lint: disable=CONC001: set once, CONC003 unaffected",
        ):
            assert _codes(here=comment) == ["CONC003"], comment

    def test_filter_drops_suppressed_findings(self):
        kept = lint_source(
            SOURCE.format(here="# repro-lint: disable=CONC001", above="", arg=""),
            Path("c.py"),
        )
        assert [(finding.code, finding.line, finding.col) for finding in kept] == [
            ("CONC003", 17, 13)
        ]


class TestFindings:
    def test_render_format(self):
        finding = Finding(path="a/b.py", line=3, col=7, code="CONC001", message="no lock")
        assert finding.render() == "a/b.py:3:7: CONC001 no lock"

    def test_orderable(self):
        first = Finding(path="a.py", line=1, col=1, code="CONC001", message="m")
        later = Finding(path="a.py", line=2, col=1, code="CONC001", message="m")
        assert sorted([later, first]) == [first, later]


class TestReporters:
    def test_text_clean_summary(self):
        text = lint_paths([FIXTURES / "conc001" / "good.py"]).render()
        assert text == "repro-lint: 1 file checked, no findings"

    def test_text_findings_listed(self):
        result = lint_paths([FIXTURES / "conc001" / "bad.py"])
        lines = result.render().splitlines()
        assert lines[:-1] == [finding.render() for finding in result.findings]
        assert lines[-1] == "repro-lint: 1 file checked, 2 finding(s), 0 error(s)"


class TestRunner:
    def test_lint_source_raises_on_syntax_error(self):
        with pytest.raises(SyntaxError):
            lint_source("def broken(:\n", Path("broken.py"))

    def test_lint_paths_records_syntax_errors(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        result = lint_paths([bad])
        assert not result.clean
        assert result.errors and "syntax error" in result.errors[0]

    def test_undecodable_file_is_one_error(self, tmp_path, capsys):
        (tmp_path / "binary.py").write_bytes(b"x = 1\n\xff\n")
        assert main([str(tmp_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith(f"error: {tmp_path / 'binary.py'}: syntax error: ")
        assert "can't decode byte 0xff" in lines[0]
        assert lines[1] == "repro-lint: 0 files checked, 0 finding(s), 1 error(s)"

    def test_coding_cookie_is_honoured(self, tmp_path):
        latin = tmp_path / "latin.py"
        latin.write_bytes(
            b"# -*- coding: latin-1 -*-\n"
            b"import threading\n"
            b"import time\n"
            b"class C:\n"
            b"    def __init__(self):\n"
            b"        self._lock = threading.Lock()\n"
            b"    def tick(self):\n"
            b"        with self._lock:\n"
            b"            time.sleep(1)  # repro-lint: disable=CONC003 -- caf\xe9 settle\n"
        )
        result = lint_paths([latin])
        assert result.clean, result.render()
        assert result.files_checked == 1

    def test_skips_pycache(self, tmp_path):
        cache_dir = tmp_path / "__pycache__"
        cache_dir.mkdir()
        (cache_dir / "junk.py").write_text("import time\ntime.time()\n")
        result = lint_paths([tmp_path])
        assert result.files_checked == 0
        assert result.clean


class TestCli:
    def test_clean_fixture_exits_zero(self, capsys):
        assert main([str(FIXTURES / "conc001" / "good.py")]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_bad_fixture_exits_one(self, capsys):
        assert main([str(FIXTURES / "conc001" / "bad.py")]) == 1
        assert "CONC001" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["does/not/exist.py"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_no_paths_is_usage_error(self, capsys):
        assert main([]) == 2
