"""Grey-zone runs across the loss-model merge: one class, the same results.

``fixtures/parent_commit/grey_zone/`` is a :class:`ResultCache` written by
commit 2d4e7b3 — the last one where ``grey_zone_fraction`` built the
separate ``EdgeLossModel`` — holding ``tiny_scenario(seed)`` with a 20 %
grey zone for seeds 1 and 7.  The surviving ``ProbabilisticReception``
must reproduce both, bit for bit (same ramp, same rng draw order).
"""

import shutil
from pathlib import Path

import pytest

from repro.analysis.cache import ResultCache, scenario_hash
from repro.phy.profiles import ProbabilisticReception, build_loss_model, resolve_profile
from repro.scenarios.builder import run_scenario
from repro.scenarios.presets import tiny_scenario

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "parent_commit" / "grey_zone"


@pytest.mark.parametrize("seed", [1, 7])
def test_grey_zone_run_equals_the_parent_commits(seed, tmp_path):
    config = tiny_scenario(seed=seed).but(grey_zone_fraction=0.2)
    assert isinstance(
        build_loss_model(resolve_profile(config), config), ProbabilisticReception
    )
    # A copy: reading refreshes mtimes and a bad entry would be deleted.
    parent = ResultCache(shutil.copytree(FIXTURE, tmp_path / "parent"))
    expected = parent.get(scenario_hash(config))
    assert expected is not None
    assert expected.mac_failures > 0  # the grey zone actually bit
    assert run_scenario(config) == expected
