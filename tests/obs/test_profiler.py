"""Profiling runs under the stdlib ``cProfile``, as ``repro-run --profile`` does."""

import cProfile
import pstats

from repro.sim.engine import Simulator


def _calls_of(stats, name):
    return sum(
        count
        for (filename, _, func), (_, count, _, _, _) in stats.stats.items()
        if func == name and filename.endswith("engine.py")
    )


def test_observability_reports_the_engine_profile():
    from repro.scenarios.builder import build_simulation
    from repro.scenarios.presets import tiny_scenario

    handle = build_simulation(tiny_scenario(seed=1).but(duration=2.0))
    profiler = cProfile.Profile()
    profiler.runcall(handle.run)
    stats = pstats.Stats(profiler)
    assert handle.sim.stats().executed > 0
    assert _calls_of(stats, "run") == 1  # the engine's run loop, once
    assert stats.total_calls > handle.sim.stats().executed


def test_profiled_run_matches_unprofiled_event_order():
    def build(profile):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append("a"))
        sim.schedule(1.0, lambda: seen.append("b"))
        sim.schedule(2.0, lambda: seen.append("c"))
        profiler = cProfile.Profile() if profile else None
        if profiler is None:
            sim.run(until=5.0)
        else:
            profiler.runcall(sim.run, until=5.0)
        return seen, sim.stats(), profiler

    plain_seen, plain_stats, _ = build(profile=False)
    prof_seen, prof_stats, profiler = build(profile=True)
    assert plain_seen == prof_seen == ["a", "b", "c"]
    assert plain_stats == prof_stats
    assert _calls_of(pstats.Stats(profiler), "run") == 1
