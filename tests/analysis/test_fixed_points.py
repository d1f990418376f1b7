"""Fixed points of the result cache across the field-plan encoder change.

The files under ``fixtures/parent_commit/`` were written by commit 16edc60
(the last one with the ``dataclasses.asdict`` encoders): for each case, the
canonical scenario JSON (``canonical.txt``) and the entry file
``ResultCache.put`` produced (``<key>.json``).  A store written then must
keep hitting, and a store written now must be byte-identical to it.
"""

import copy
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.analysis.cache as cache_module
from repro.analysis.cache import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    make_entry,
    scenario_hash,
)
from repro.analysis.runner import SweepEngine
from repro.scenarios.io import scenario_canonical_json

from tests.analysis.test_cache import _config, _result

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "parent_commit"

# (fixture directory, config, stored result).  "pre_profile" leaves the three
# post-v1 fields at their defaults (elided from the canonical JSON);
# "post_profile" sets all three (present in it).
FIXTURE_CASES = [
    ("pre_profile", _config(), _result()),
    (
        "post_profile",
        _config(
            radio_profile="urban",
            link_loss=0.15,
            walk_epoch=4.0,
            mobility_model="random_walk",
        ),
        _result(drop_reasons={}, offered_load_kbps=None, data_sent_reachable=None),
    ),
]
CASE_IDS = [name for name, _, _ in FIXTURE_CASES]


def _parent_entry(name):
    (path,) = (FIXTURES / name).glob("*.json")
    return path.stem, path.read_bytes()


@pytest.mark.parametrize(("name", "config", "result"), FIXTURE_CASES, ids=CASE_IDS)
def test_keys_and_canonical_json_match_the_parent_commit(name, config, result):
    key, _ = _parent_entry(name)
    canonical = (FIXTURES / name / "canonical.txt").read_text()
    assert scenario_canonical_json(config) == canonical
    assert scenario_hash(config) == key
    assert ("radio_profile" in canonical) == (name == "post_profile")
    assert CACHE_FORMAT_VERSION == 1


@pytest.mark.parametrize(("name", "config", "result"), FIXTURE_CASES, ids=CASE_IDS)
def test_entry_written_by_the_parent_commit_is_a_hit(name, config, result, tmp_path):
    key, raw = _parent_entry(name)
    cache = ResultCache(tmp_path)
    entry_path = cache._path(scenario_hash(config))
    entry_path.parent.mkdir()
    entry_path.write_bytes(raw)
    assert cache.get(scenario_hash(config)) == result
    assert cache.get(key) == result
    assert entry_path.read_bytes() == raw  # a hit leaves the file as written
    assert (cache.stats.hits, cache.stats.misses, cache.stats.invalidated) == (2, 0, 0)


@pytest.mark.parametrize(("name", "config", "result"), FIXTURE_CASES, ids=CASE_IDS)
def test_put_writes_the_file_the_parent_commit_wrote(name, config, result, tmp_path):
    key, raw = _parent_entry(name)
    assert ResultCache(tmp_path).put(key, result).read_bytes() == raw
    assert json.dumps(make_entry(key, result), sort_keys=True).encode() == raw


# -- one encode, one parse, one rebuild per hit ------------------------------


def test_warm_sweep_never_reflects_and_rebuilds_once_per_hit(tmp_path, monkeypatch):
    """The clock-free regression gate for the warm figure path."""
    configs = [_config(seed=seed) for seed in range(50)]
    stored = _result()
    cache = ResultCache(tmp_path)
    for config in configs:
        cache.put(scenario_hash(config), stored)

    def reflective(*args, **kwargs):
        raise AssertionError("reflective copy on the warm resolve path")

    rebuilds = []
    real_rebuild = cache_module.result_from_payload

    def counting_rebuild(payload):
        rebuilds.append(payload)
        return real_rebuild(payload)

    monkeypatch.setattr(dataclasses, "asdict", reflective)
    monkeypatch.setattr(copy, "deepcopy", reflective)
    monkeypatch.setattr(cache_module, "result_from_payload", counting_rebuild)

    def must_not_run(payload):
        raise AssertionError("warm sweep simulated a cached config")

    engine = SweepEngine(processes=1, cache=ResultCache(tmp_path), task_fn=must_not_run)
    report = engine.run(configs)
    assert report.results == [stored] * 50
    assert (report.cache_hits, report.executed) == (50, 0)
    assert len(rebuilds) == 50


# -- invalidation semantics beyond tests/analysis/test_cache.py --------------


def _assert_invalidated(cache, key, path):
    assert cache.get(key) is None
    assert not path.exists()
    assert (cache.stats.hits, cache.stats.misses, cache.stats.invalidated) == (0, 1, 1)


def test_truncated_entry_is_invalidated(tmp_path):
    cache = ResultCache(tmp_path)
    key = scenario_hash(_config())
    path = cache.put(key, _result())
    path.write_bytes(path.read_bytes()[:-40])
    _assert_invalidated(cache, key, path)


def test_entry_stored_under_another_key_is_invalidated(tmp_path):
    cache = ResultCache(tmp_path)
    key = scenario_hash(_config())
    path = cache.put(key, _result())
    path.write_text(json.dumps(make_entry(scenario_hash(_config(seed=7)), _result())))
    _assert_invalidated(cache, key, path)


def test_entry_missing_a_result_field_is_invalidated(tmp_path):
    cache = ResultCache(tmp_path)
    key = scenario_hash(_config())
    path = cache.put(key, _result())
    entry = json.loads(path.read_text())
    del entry["result"]["data_sent"]
    path.write_text(json.dumps(entry))
    _assert_invalidated(cache, key, path)


def test_non_utf8_entry_is_invalidated(tmp_path):
    cache = ResultCache(tmp_path)
    key = scenario_hash(_config())
    path = cache.put(key, _result())
    path.write_bytes(b"\xff\xfe{}")
    _assert_invalidated(cache, key, path)


def test_entry_that_is_not_an_object_is_invalidated(tmp_path):
    cache = ResultCache(tmp_path)
    key = scenario_hash(_config())
    path = cache.put(key, _result())
    path.write_text("[]")
    _assert_invalidated(cache, key, path)


# -- import hygiene ----------------------------------------------------------


def test_sweep_runner_import_leaves_the_http_stack_out():
    """Only ``repro.service`` talks HTTP; a sweep pool worker or a
    ``repro-run`` that imports the engine must not pay for http/ssl/email."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    script = (
        "import sys; import repro.analysis.runner; "
        "print([m for m in ('urllib.request', 'http.client', 'ssl') "
        "if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# -- the three callers of presets.preset_scenario ----------------------------

_PRESET_FLAGS = {
    "default": [],
    "moved": [
        "--pause-time", "30", "--packet-rate", "1", "--duration", "15",
        "--variant", "AllTechniques", "--seed", "3",
    ],
}


def preset_hashes():
    """``scenario_hash`` of what every preset entry point builds: both CLIs
    for each ``--preset`` × flag set, and ``repro.paper``'s three scales.
    (Uses only names commit 7adca43 has too: it recorded the fixture.)"""
    from unittest import mock

    import repro.cli as run_cli
    import repro.paper as paper
    import repro.service.cli as submit_cli
    from repro.core.config import PAPER_VARIANTS

    seen = {}
    for preset in ("tiny", "scaled", "paper"):
        for label, flags in _PRESET_FLAGS.items():
            built = []
            with mock.patch.object(
                run_cli, "_run_and_report", lambda args, config: built.append(config) or 0
            ):
                assert run_cli.main(["--preset", preset, *flags]) == 0
            seen[f"repro-run/{preset}/{label}"] = scenario_hash(built[0])
            args = submit_cli._build_submit_parser().parse_args(
                ["submit", "--preset", preset, *flags]
            )
            [payload] = submit_cli._scenarios_from_args(args)
            seen[f"repro-submit/{preset}/{label}"] = scenario_hash(payload)
    for scale in ("quick", "scaled", "paper"):
        seen[f"paper/{scale}/default"] = scenario_hash(
            paper._base_scenario(scale, 0.0, 3.0, PAPER_VARIANTS["DSR"], 1)
        )
        seen[f"paper/{scale}/moved"] = scenario_hash(
            paper._base_scenario(scale, 30.0, 1.0, PAPER_VARIANTS["AllTechniques"], 3)
        )
    return seen


def test_every_preset_entry_point_builds_the_parent_commits_scenarios():
    recorded = json.loads((FIXTURES / "preset_hashes.json").read_text(encoding="utf-8"))
    assert preset_hashes() == recorded
