"""Fixture-driven tests: every rule has a positive, clean, and suppressed case."""

from pathlib import Path

import pytest

from repro.devtools.lint.context import discover_project
from repro.devtools.lint.runner import lint_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures"
CACHE_PROJECT = FIXTURES / "cache001" / "project"

# (rule code, fixture directory holding bad/good/suppressed.py, project root or None)
CASES = [
    ("DET001", FIXTURES / "det001", None),
    ("DET002", FIXTURES / "det002", None),
    ("TRC001", FIXTURES / "trc001" / "mac", None),
    ("CACHE001", CACHE_PROJECT / "analysis", CACHE_PROJECT),
    ("CONC001", FIXTURES / "conc001", None),
    ("CONC003", FIXTURES / "conc003", None),
]

IDS = [code for code, _, _ in CASES]


def _lint(code, path, project_root):
    return lint_paths([path], select=[code], project_root=project_root)


@pytest.mark.parametrize(("code", "fixture_dir", "project_root"), CASES, ids=IDS)
def test_bad_fixture_is_flagged(code, fixture_dir, project_root):
    result = _lint(code, fixture_dir / "bad.py", project_root)
    assert result.findings, f"{code} found nothing in its positive fixture"
    assert {finding.code for finding in result.findings} == {code}
    assert all(finding.line >= 1 and finding.col >= 1 for finding in result.findings)


@pytest.mark.parametrize(("code", "fixture_dir", "project_root"), CASES, ids=IDS)
def test_good_fixture_is_clean(code, fixture_dir, project_root):
    result = _lint(code, fixture_dir / "good.py", project_root)
    assert result.clean, [finding.render() for finding in result.findings]


@pytest.mark.parametrize(("code", "fixture_dir", "project_root"), CASES, ids=IDS)
def test_suppression_comment_is_honoured(code, fixture_dir, project_root):
    result = _lint(code, fixture_dir / "suppressed.py", project_root)
    assert result.clean, [finding.render() for finding in result.findings]


def test_cache001_project_is_auto_discovered():
    """Without --project-root, the model is found by walking up from the file."""
    result = lint_paths([CACHE_PROJECT / "analysis" / "bad.py"], select=["CACHE001"])
    assert result.findings
    flagged = {finding.message for finding in result.findings}
    assert any("schema_rev" in message for message in flagged)
    assert any("node_count" in message for message in flagged)


def test_cache001_skips_without_project_model(tmp_path):
    """No scenario schema in sight → the rule must skip, not guess."""
    orphan = tmp_path / "analysis" / "orphan.py"
    orphan.parent.mkdir()
    orphan.write_text("def describe(config):\n    return config.mystery_field\n")
    result = lint_paths([orphan], select=["CACHE001"])
    assert result.clean


def test_cache001_model_introspection():
    model = discover_project(CACHE_PROJECT / "analysis")
    assert model.available
    assert model.all_fields_canonical
    assert model.canonical_keys == {"num_nodes", "duration", "seed"}
    assert {"offered_load", "but"} <= model.derived_attrs


def test_cache001_field_plan_encoder_makes_every_field_canonical():
    """``scenario_to_dict`` reading a module-level plan built from
    ``dataclasses.fields(ScenarioConfig)`` is the shape the real tree uses."""
    project = FIXTURES / "cache001_plan" / "project"
    model = discover_project(project / "analysis")
    assert model.all_fields_canonical
    assert model.canonical_keys == {"num_nodes", "duration", "seed"}
    assert _lint("CACHE001", project / "analysis" / "reads.py", project).clean


def test_cache001_hand_listed_encoder_keys_only_what_it_lists():
    """The same reads against an encoder that spells its keys out: the field
    it leaves out cannot key the cache, and reading it is flagged."""
    project = FIXTURES / "cache001_listed" / "project"
    model = discover_project(project / "analysis")
    assert not model.all_fields_canonical
    assert model.canonical_keys == {"num_nodes", "seed"}
    result = _lint("CACHE001", project / "analysis" / "reads.py", project)
    assert [finding.code for finding in result.findings] == ["CACHE001"]
    assert "config.duration" in result.findings[0].message


def test_cache001_models_the_real_tree_from_its_field_plan():
    import repro

    model = discover_project(Path(repro.__file__).parent / "analysis")
    assert model.all_fields_canonical
    assert {"seed", "radio_profile", "dsr"} <= model.canonical_keys


def test_trc001_only_applies_to_hot_subsystems(tmp_path):
    """The same unguarded emit outside mac/phy/sim is not TRC001's business."""
    cold = tmp_path / "analysis" / "plots.py"
    cold.parent.mkdir()
    cold.write_text((FIXTURES / "trc001" / "mac" / "bad.py").read_text())
    result = lint_paths([cold], select=["TRC001"])
    assert result.clean
