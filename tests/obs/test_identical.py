"""The observability layer's core contract: bit-identical simulation metrics.

Every observer (interval metrics, flight recorder, trace writer, and the
``cProfile`` run ``repro-run --profile`` makes) only subscribes, samples or
reads — the simulation itself must be a pure function of its scenario
whether observation is on or off.
"""

import cProfile
import inspect
import pstats

import pytest

from repro.obs import fleet, flight, instruments, interval, slog
from repro.obs.flight import FlightRecorder
from repro.obs.interval import COLUMNS, IntervalMetrics
from repro.scenarios.builder import build_simulation
from repro.scenarios.presets import tiny_scenario
from repro.sim.tracefile import TraceFileWriter


def _config():
    return tiny_scenario(seed=7).but(duration=20.0)


@pytest.fixture(scope="module")
def baseline():
    return build_simulation(_config()).run()


def test_full_observability_is_bit_identical(baseline, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("obs")
    handle = build_simulation(_config())
    metrics = IntervalMetrics(5.0).attach(handle)
    recorder = FlightRecorder(handle.tracer, capacity=64)
    profiler = cProfile.Profile()
    with TraceFileWriter(handle.tracer, tmp_path / "run.jsonl"):
        with recorder.armed(tmp_path / "flight.txt"):
            result = profiler.runcall(handle.run)
    metrics.finish()
    assert result == baseline
    assert pstats.Stats(profiler).total_calls > 0


def test_trace_writer_is_bit_identical(baseline, tmp_path):
    handle = build_simulation(_config())
    with TraceFileWriter(handle.tracer, tmp_path / "run.jsonl"):
        result = handle.run()
    assert result == baseline


def _assert_rows_sum_to(rows, result):
    for name in COLUMNS:
        expected = getattr(result, name)
        if isinstance(expected, float):  # delay_sum: a sum of float deltas
            expected = pytest.approx(expected)
        assert sum(row[name] for row in rows) == expected, name


def test_metrics_rows_reconcile_with_final_result(baseline):
    handle = build_simulation(_config())
    metrics = IntervalMetrics(5.0).attach(handle)
    result = handle.run()
    assert result == baseline
    _assert_rows_sum_to(metrics.finish(), result)


@pytest.mark.parametrize("protocol", ["dsr", "aodv"])
def test_every_counter_column_sums_to_the_result(protocol):
    handle = build_simulation(tiny_scenario(seed=2).but(duration=20.0, protocol=protocol))
    metrics = IntervalMetrics(5.0).attach(handle)
    result = handle.run()
    rows = metrics.finish()
    assert [row["t_end"] for row in rows] == [5.0, 10.0, 15.0, 20.0]
    assert result.data_sent > 0
    _assert_rows_sum_to(rows, result)


def _subscription_state(tracer):
    return (
        {kind: len(fns) for kind, fns in tracer._subscribers.items()},
        len(tracer._wildcard),
    )


def test_metrics_interval_adds_no_trace_subscription():
    plain = build_simulation(_config())
    handle = build_simulation(_config())
    IntervalMetrics(5.0).attach(handle)
    assert _subscription_state(handle.tracer) == _subscription_state(plain.tracer)


def test_observability_detach_leaves_tracer_clean():
    handle = build_simulation(_config())
    baseline = _subscription_state(handle.tracer)  # the collector's wiring
    metrics = IntervalMetrics(5.0).attach(handle)
    recorder = FlightRecorder(handle.tracer, capacity=16)
    assert _subscription_state(handle.tracer) != baseline
    metrics.detach()
    recorder.detach()
    assert _subscription_state(handle.tracer) == baseline


def _owner_module(fn):
    """The module of the object a scheduled callback belongs to, looking
    through a ``repro.sim.timers`` timer to the callback it runs."""
    owner = getattr(fn, "__self__", None)
    inner = getattr(owner, "_fn", None)
    if inner is not None:
        owner = getattr(inner, "__self__", None)
    return type(owner).__module__


def test_default_observability_attaches_nothing():
    """With no observer asked for, a build holds only the metrics
    collector's subscriptions, no wildcard, and no ``repro.obs`` callback
    on the event heap."""
    handle = build_simulation(_config())
    assert not handle.tracer.wants("no.such.kind")  # no wildcard subscriber
    subscribers = [fn for fns in handle.tracer._subscribers.values() for fn in fns]
    assert subscribers and all(fn.__self__ is handle.metrics for fn in subscribers)
    scheduled = {_owner_module(entry[2].fn) for entry in handle.sim._heap}
    assert scheduled and not any(name.startswith("repro.obs") for name in scheduled)


def test_a_plain_run_never_calls_into_repro_obs(baseline, monkeypatch):
    """What the "< 2 % when off" budget means, without a stopwatch: a plain
    ``build_simulation(...).run()`` never calls into ``repro.obs`` and
    leaves the tracer's subscriptions as built.  The engine itself keeps no
    wall clock."""
    handle = build_simulation(_config())
    built = _subscription_state(handle.tracer)

    def entered(*args, **kwargs):
        raise AssertionError("a plain run called into repro.obs")

    for module in (fleet, flight, instruments, interval, slog):
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                for name, _ in inspect.getmembers(cls, inspect.isfunction):
                    monkeypatch.setattr(cls, name, entered)
    assert handle.run() == baseline
    assert _subscription_state(handle.tracer) == built
