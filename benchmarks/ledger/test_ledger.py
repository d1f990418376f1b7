"""Self-tests of the ledger harness itself (not tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time

import pytest

from benchmarks.ledger import child, compare, harness, layers
from benchmarks.ledger.workloads import PROCESSES, WORKLOADS

ROOT = "/pkg/repro"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _stats_table():
    """A hand-made ``pstats`` table: sim calls phy, both call code that is not ours."""
    engine = (f"{ROOT}/sim/engine.py", 10, "run")
    channel = (f"{ROOT}/phy/channel.py", 20, "transmit")
    builder = (f"{ROOT}/scenarios/builder.py", 30, "build")
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    dot = ("/usr/lib/python3/site-packages/numpy/core.py", 5, "dot")
    return {
        engine: (1, 1, 1.0, 6.0, {builder: (1, 1, 1.0, 6.0)}),
        channel: (10, 10, 2.0, 3.0, {engine: (10, 10, 2.0, 3.0)}),
        builder: (1, 1, 0.5, 6.5, {}),
        heappop: (5, 5, 0.5, 0.5, {engine: (5, 5, 0.5, 0.5)}),
        dot: (4, 4, 1.5, 1.5, {channel: (3, 3, 1.0, 1.0), engine: (1, 1, 0.5, 0.5)}),
    }


def test_rollup_charges_foreign_time_to_the_calling_layer():
    metrics = layers.rollup(_stats_table(), ROOT)["timings"]
    # sim: own 1.0 + heappop 0.5 + its third of numpy's 1.5
    assert metrics["sim.self_s"] == pytest.approx(2.0)
    # phy: own 2.0 + its two thirds of numpy's 1.5
    assert metrics["phy.self_s"] == pytest.approx(3.0)
    assert metrics["other.self_s"] == pytest.approx(0.5)
    assert metrics["phy.channel.self_share"] == pytest.approx(3.0 / 5.5)
    assert sum(metrics[f"{layer}.self_share"] for layer in layers.LAYERS) == pytest.approx(1.0)


def test_rollup_counts_calls_and_boundary_crossings_exactly():
    rolled = layers.rollup(_stats_table(), ROOT)
    metrics = rolled["counts"]
    assert metrics["phy.calls"] == 10
    assert metrics["phy.calls_in"] == 10  # all from sim
    assert metrics["sim.calls_in"] == 1  # from the builder ("other")
    # heappop and numpy are "other" by ownership: 5 + 4 calls, plus the builder's 1.
    assert metrics["other.calls"] == 10
    assert rolled["edges"]["sim>phy"] == 10


def test_module_of_maps_paths_to_layers():
    assert layers.module_of(f"{ROOT}/mac/dcf.py", ROOT) == ("mac", "mac.dcf")
    assert layers.module_of(f"{ROOT}/analysis/runner.py", ROOT) == ("other", "other")
    assert layers.module_of("/usr/lib/python3/heapq.py", ROOT) is None


def test_manifest_names_units_and_bounds_fit_the_contract():
    manifest = harness.load_manifest()
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(
        UNIT.fullmatch(m["unit"]) for m in manifest["end_to_end"] + manifest["per_layer"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in manifest["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert not any("speedup" in name for name in names)


def test_parallel_efficiency_is_refused_on_a_host_that_cannot_show_it():
    value, reason = child.parallel_efficiency(3.6, 2.0, processes=2, host_cpus=1)
    assert value is None and "host_cpus 1 < processes 2" in reason
    value, reason = child.parallel_efficiency(3.6, 2.0, processes=2, host_cpus=2)
    assert value == pytest.approx(0.9) and reason is None


def test_a_killed_fleet_worker_is_a_warning_not_a_failure():
    verifier = harness.Verifier("service_fig2", seed=3, scale=1.0)
    record = {
        "workload": "service_fig2", "scenario": 0, "traced": False, "digests": ["ab"],
        "attempted": 1, "failed": 0, "errors": [],
        "warnings": ["ledger-w1 ignored SIGTERM for 3 s and was killed"],
    }
    assert verifier.check(record)
    assert (verifier.failed, verifier.errors) == (0, [])
    assert verifier.warnings == record["warnings"]


def _sample_set(walls):
    summary = harness.summarize(walls)
    return {
        "workloads": {
            "w": {
                "end_to_end": {"wall_refs_per_unit": summary},
                "per_layer": {"counts": {"sim.events_executed": 7}, "timings": {}},
                "digests": {"0": ["ab"]},
            }
        }
    }


def test_result_set_survives_a_json_round_trip_and_agrees_with_itself():
    manifest = harness.load_manifest()
    original = _sample_set([1.0, 1.1, 0.9, 1.05, 0.95])
    restored = json.loads(json.dumps(original))
    assert restored == original
    rows = compare.compare_sets(original, restored, manifest)
    assert [row["metric"] for row in rows] == ["wall_refs_per_unit"]
    assert rows[0]["worse_by"] == 0.0 and rows[0]["verdict"] == "unchanged"
    assert compare.count_differences(original, restored) == []
    assert compare.disagreements(rows) == []


def test_compare_verdicts():
    manifest = harness.load_manifest()
    base = _sample_set([1.0, 1.01, 0.99, 1.0, 1.02])
    verdict = lambda walls: compare.compare_sets(base, _sample_set(walls), manifest)[0]["verdict"]
    assert verdict([0.8, 0.81, 0.79, 0.8, 0.82]) == "improved"
    assert verdict([1.5, 1.51, 1.49, 1.5, 1.52]) == "regressed"
    assert verdict([1.0, 1.02, 0.98, 1.01, 1.0]) == "unchanged"
    # Spread wider than the bound and no clean win: neither side can claim anything.
    assert verdict([0.6, 1.5, 1.0, 0.7, 1.4]) == "unresolved"
    changed = _sample_set([1.0])
    changed["workloads"]["w"]["per_layer"]["counts"]["sim.events_executed"] = 8
    assert compare.count_differences(base, changed) == [
        "w sim.events_executed: 7 != 8"
    ]


def test_smoke_run_covers_every_workload_and_metric_in_under_a_minute(tmp_path):
    out = tmp_path / "smoke.json"
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "run", "--smoke", "--out", str(out)],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=120,
        env=harness.child_env(),
    )
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 60.0
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0

    manifest = harness.load_manifest()
    listed = {m["name"] for m in manifest["per_layer"]}
    result_set = json.loads(out.read_text())
    assert list(result_set["workloads"]) == list(WORKLOADS)
    assert result_set["host"]["host_cpus"] >= 1
    emitted = set()
    for name, entry in result_set["workloads"].items():
        assert set(entry["end_to_end"]) == {m["name"] for m in manifest["end_to_end"]}
        assert entry["failed"] == 0 and entry["errors"] == []
        flat = harness.flat_per_layer(entry)
        emitted |= set(flat) | set(entry["omitted"])
        if WORKLOADS[name].kind == "sim":
            shares = sum(flat[f"{layer}.self_share"] for layer in layers.LAYERS)
            assert shares == pytest.approx(1.0, abs=0.01)
    # The manifest and the harness list the same per-layer metrics.
    assert emitted == listed
    sweep = result_set["workloads"]["sweep_fig2"]
    if result_set["host"]["host_cpus"] < PROCESSES:
        assert "analysis.parallel_efficiency" in sweep["omitted"]
    assert harness.flat_per_layer(sweep)["analysis.executed"] == 12
    assert harness.flat_per_layer(result_set["workloads"]["sweep_warm"])["analysis.executed"] == 0
