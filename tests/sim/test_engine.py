"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(1.5, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for name in ("a", "b", "c"):
        sim.schedule(1.0, fired.append, name)
    sim.run()
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(3.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [3.5]
    assert sim.now == 3.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "in")
    sim.schedule(5.0, fired.append, "out")
    sim.run(until=2.0)
    assert fired == ["in"]
    assert sim.now == 2.0  # clock advanced to the horizon
    sim.run()  # remaining event still runs later
    assert fired == ["in", "out"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "no")
    sim.schedule(2.0, fired.append, "yes")
    event.cancel()
    sim.run()
    assert fired == ["yes"]


def test_cancel_via_simulator_api():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.5, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.5


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_stop_halts_the_loop():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    assert sim.pending_events == 1


def test_max_events_limit():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i + 1), lambda: None)
    executed = sim.run(max_events=4)
    assert executed == 4


def test_run_returns_count_of_executed_events():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    event = sim.schedule(2.0, lambda: None)
    event.cancel()
    sim.schedule(3.0, lambda: None)
    assert sim.run() == 2


def test_zero_delay_event_fires_at_current_time():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    seen = []
    sim.schedule(0.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.0]


def test_compaction_purges_cancelled_events():
    sim = Simulator(compact_min_heap=16, compact_ratio=0.5)
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
    for event in events[:80]:
        event.cancel()
    stats = sim.stats()
    assert stats.compactions >= 1
    assert stats.pending_cancelled < 0.5 * max(stats.pending, 1)
    assert stats.pending < 100  # garbage actually left the heap
    assert sim.run() == 20


def test_compaction_preserves_execution_order():
    """Compacting mid-run must not reorder the surviving events."""
    sim = Simulator(compact_min_heap=8, compact_ratio=0.25)
    fired = []
    for i in range(0, 100, 2):
        sim.schedule(float(i), fired.append, i)
    doomed = [sim.schedule(float(i), fired.append, i) for i in range(1, 100, 2)]
    # Cancel from inside the run, so compaction interleaves with execution.
    sim.schedule(0.5, lambda: [event.cancel() for event in doomed])
    sim.run()
    assert fired == list(range(0, 100, 2))
    assert sim.stats().compactions >= 1


def test_compaction_is_transparent_to_results():
    """Same workload, compaction on vs effectively off: same outcome."""

    def churn(sim):
        fired = []
        for i in range(500):
            sim.schedule(float(i), fired.append, i)
            victim = sim.schedule(float(i) + 0.25, fired.append, -i)
            victim.cancel()
        sim.run()
        return fired

    eager = churn(Simulator(compact_min_heap=4, compact_ratio=0.01))
    lazy = churn(Simulator(compact_min_heap=10**9))
    assert eager == lazy == list(range(500))


def test_stats_counters():
    sim = Simulator(compact_min_heap=10**9)  # keep compaction out of the way
    sim.schedule(1.0, lambda: None)
    victim = sim.schedule(2.0, lambda: None)
    victim.cancel()
    victim.cancel()  # idempotent: must not double-count
    sim.run()
    stats = sim.stats()
    assert stats.executed == 1
    assert stats.cancelled == 1
    assert stats.skipped == 1
    assert stats.compactions == 0
    assert stats.pending == 0
    assert stats.pending_cancelled == 0


def test_invalid_compact_ratio_rejected():
    with pytest.raises(SimulationError):
        Simulator(compact_ratio=0.0)
    with pytest.raises(SimulationError):
        Simulator(compact_ratio=1.5)


def test_reserved_event_keeps_its_place_among_same_instant_events():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, fired.append, "a")
    seq = sim.reserve_seq()
    sim.schedule_at(1.0, fired.append, "c")
    assert sim.pending_events == 2  # a reservation puts nothing in the heap
    sim.run(until=0.5)
    sim.schedule_reserved(1.0, seq, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_reserved_event_must_be_pushed_before_its_instant():
    sim = Simulator()
    seq = sim.reserve_seq()
    sim.run(until=1.0)
    with pytest.raises(SimulationError):
        sim.schedule_reserved(1.0, seq, lambda: None)  # the instant has begun
    with pytest.raises(SimulationError):
        sim.schedule_reserved(0.5, seq, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_reserved(2.0, seq + 1, lambda: None)  # never handed out
    assert sim.pending_events == 0
