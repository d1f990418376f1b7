"""Tests for the repro-lint framework: registry, suppressions, reporters, CLI."""

import json
from pathlib import Path

import pytest

from repro.devtools.lint import cli
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import all_rules, get_rule, known_codes
from repro.devtools.lint.report import render_json, render_text
from repro.devtools.lint.runner import lint_paths, lint_source, select_rules
from repro.devtools.lint.suppressions import Suppressions

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# The rules with a catch no other check makes (docs/architecture.md has the
# mutation-recall table).
EXPECTED_CODES = ["CONC001", "CONC003"]


class TestRegistry:
    def test_all_expected_rules_registered(self):
        assert known_codes() == EXPECTED_CODES

    def test_rules_are_sorted_by_code(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == sorted(codes)

    def test_get_rule_round_trips(self):
        for code in EXPECTED_CODES:
            rule = get_rule(code)
            assert rule.code == code
            assert rule.description

    def test_select_rules_filters(self):
        only = select_rules(select=["CONC003"])
        assert [rule.code for rule in only] == ["CONC003"]
        without = select_rules(ignore=["CONC001"])
        assert "CONC001" not in {rule.code for rule in without}
        assert len(without) == len(EXPECTED_CODES) - 1

    def test_select_codes_case_insensitive(self):
        assert [rule.code for rule in select_rules(select=["conc001"])] == ["CONC001"]


class TestSuppressions:
    def test_line_scope_suppresses_only_that_line(self):
        source = "import time\nx = time.sleep(1)  # repro-lint: disable=CONC003\n"
        supp = Suppressions(source)
        assert supp.is_suppressed("CONC003", 2)
        assert not supp.is_suppressed("CONC003", 1)
        assert not supp.is_suppressed("CONC001", 2)

    def test_file_scope_suppresses_everywhere(self):
        source = "# repro-lint: disable-file=CONC003\nimport time\nx = time.sleep(1)\n"
        supp = Suppressions(source)
        assert supp.is_suppressed("CONC003", 3)
        assert supp.is_suppressed("CONC003", 99)
        assert not supp.is_suppressed("CONC001", 3)

    def test_disable_all(self):
        supp = Suppressions("x = 1  # repro-lint: disable=all\n")
        assert supp.is_suppressed("CONC001", 1)
        assert supp.is_suppressed("CONC003", 1)

    def test_marker_in_string_literal_is_ignored(self):
        supp = Suppressions('x = "# repro-lint: disable=CONC001"\n')
        assert not supp.is_suppressed("CONC001", 1)

    def test_multiple_codes_one_comment(self):
        supp = Suppressions("x = 1  # repro-lint: disable=CONC001,CONC003\n")
        assert supp.is_suppressed("CONC001", 1)
        assert supp.is_suppressed("CONC003", 1)
        assert not supp.is_suppressed("CONC002", 1)

    def test_filter_drops_suppressed_findings(self):
        source = "import time\nx = time.sleep(1)  # repro-lint: disable=CONC003\n"
        findings = [
            Finding(path="f.py", line=2, col=5, code="CONC003", message="m"),
            Finding(path="f.py", line=2, col=5, code="CONC001", message="m"),
        ]
        kept = Suppressions(source).filter(findings)
        assert [finding.code for finding in kept] == ["CONC001"]


class TestFindings:
    def test_render_format(self):
        finding = Finding(path="a/b.py", line=3, col=7, code="CONC001", message="no lock")
        assert finding.render() == "a/b.py:3:7: CONC001 no lock"

    def test_orderable(self):
        first = Finding(path="a.py", line=1, col=1, code="CONC001", message="m")
        later = Finding(path="a.py", line=2, col=1, code="CONC001", message="m")
        assert sorted([later, first]) == [first, later]


class TestReporters:
    def _result(self, paths):
        return lint_paths(paths)

    def test_text_clean_summary(self):
        result = self._result([FIXTURES / "conc001" / "good.py"])
        text = render_text(result)
        assert "1 file checked, no findings" in text

    def test_text_findings_listed(self):
        result = self._result([FIXTURES / "conc001" / "bad.py"])
        text = render_text(result)
        assert "CONC001" in text
        assert "finding(s)" in text

    def test_json_round_trips(self):
        result = self._result([FIXTURES / "conc001" / "bad.py"])
        payload = json.loads(render_json(result))
        assert payload["files_checked"] == 1
        assert payload["errors"] == []
        assert payload["findings"]
        for finding in payload["findings"]:
            assert finding["code"] == "CONC001"
            assert finding["line"] >= 1


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

    def test_skips_pycache(self, tmp_path):
        cache_dir = tmp_path / "__pycache__"
        cache_dir.mkdir()
        (cache_dir / "junk.py").write_text("import time\ntime.time()\n")
        result = lint_paths([tmp_path])
        assert result.files_checked == 0
        assert result.clean


class TestCli:
    def test_clean_fixture_exits_zero(self, capsys):
        assert cli.main([str(FIXTURES / "conc001" / "good.py")]) == cli.EXIT_CLEAN
        assert "no findings" in capsys.readouterr().out

    def test_bad_fixture_exits_one(self, capsys):
        assert cli.main([str(FIXTURES / "conc001" / "bad.py")]) == cli.EXIT_FINDINGS
        assert "CONC001" in capsys.readouterr().out

    def test_json_format(self, capsys):
        code = cli.main(["--format", "json", str(FIXTURES / "conc001" / "bad.py")])
        assert code == cli.EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"]

    def test_unknown_rule_code_is_usage_error(self, capsys):
        code = cli.main(["--select", "NOPE999", str(FIXTURES / "conc001" / "good.py")])
        assert code == cli.EXIT_USAGE
        assert "unknown rule code" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert cli.main(["does/not/exist.py"]) == cli.EXIT_USAGE
        assert "no such path" in capsys.readouterr().err

    def test_no_paths_is_usage_error(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE

    def test_list_rules(self, capsys):
        assert cli.main(["--list-rules"]) == cli.EXIT_CLEAN
        out = capsys.readouterr().out
        for code in EXPECTED_CODES:
            assert code in out

    def test_ignore_silences_rule(self):
        code = cli.main(["--ignore", "CONC001", str(FIXTURES / "conc001" / "bad.py")])
        assert code == cli.EXIT_CLEAN
