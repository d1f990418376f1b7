"""Unit tests for the engine's profiling hook and its reporting layer."""

import pytest

from repro.obs.profiler import ProfileReport
from repro.sim.engine import ProfileEntry, Simulator


class Ticker:
    def __init__(self, sim):
        self.sim = sim
        self.calls = 0

    def tick(self):
        self.calls += 1
        if self.calls < 3:
            self.sim.schedule(1.0, self.tick)


def test_profiler_attributes_calls_per_callback():
    sim = Simulator()
    sim.enable_profiling()
    ticker = Ticker(sim)
    sim.schedule(1.0, ticker.tick)
    sim.run(until=10.0)
    report = ProfileReport(entries=sim.profile_entries())
    assert report.total_calls == 3
    entry = next(e for e in report.entries if "Ticker.tick" in e.key)
    assert entry.calls == 3
    assert entry.wall_s >= 0.0


def test_no_entries_when_profiling_off():
    sim = Simulator()
    assert not sim.profiling_enabled
    sim.schedule(1.0, lambda: None)
    sim.run(until=2.0)
    assert sim.profile_entries() is None


def test_disable_stops_attribution():
    sim = Simulator()
    sim.enable_profiling()
    assert sim.profiling_enabled
    sim.disable_profiling()
    assert not sim.profiling_enabled
    sim.schedule(1.0, lambda: None)
    sim.run(until=2.0)
    assert sim.profile_entries() is None


def test_observability_reports_the_engine_profile():
    from repro.obs import Observability
    from repro.scenarios.builder import build_simulation
    from repro.scenarios.presets import tiny_scenario

    handle = build_simulation(tiny_scenario(seed=1).but(duration=2.0))
    obs = Observability(profile=True).attach(handle)
    assert handle.sim.profiling_enabled
    obs.run(handle)
    report = obs.profile_report()
    assert report.total_calls == handle.sim.stats().executed
    obs.detach()
    assert not handle.sim.profiling_enabled
    assert obs.profile_report() is None


def test_profiled_run_matches_unprofiled_event_order():
    def build(profile):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append("a"))
        sim.schedule(1.0, lambda: seen.append("b"))
        sim.schedule(2.0, lambda: seen.append("c"))
        if profile:
            sim.enable_profiling()
        sim.run(until=5.0)
        return seen, sim.stats()

    plain_seen, plain_stats = build(profile=False)
    prof_seen, prof_stats = build(profile=True)
    assert plain_seen == prof_seen
    assert plain_stats.executed == prof_stats.executed
    assert plain_stats.profile is None
    assert prof_stats.profile is not None


def test_component_rollup_groups_by_class():
    report = ProfileReport(
        entries=(
            ProfileEntry(key="Mac.tx", calls=2, wall_s=0.2),
            ProfileEntry(key="Mac.rx", calls=1, wall_s=0.1),
            ProfileEntry(key="Phy.step", calls=5, wall_s=0.05),
        )
    )
    rolled = report.by_component()
    assert [c.component for c in rolled] == ["Mac", "Phy"]
    assert rolled[0].calls == 3
    assert rolled[0].wall_s == pytest.approx(0.3)
    assert report.total_calls == 8


def test_format_renders_table_with_top_cutoff():
    report = ProfileReport(
        entries=tuple(
            ProfileEntry(key=f"C.fn{i}", calls=1, wall_s=0.01) for i in range(5)
        )
    )
    text = report.format(top=2)
    assert "engine profile: 5 calls" in text
    assert "... 3 more callback(s)" in text
