"""The observability layer's core contract: bit-identical simulation metrics.

Every observer (interval metrics, profiler, flight recorder, trace writer)
only subscribes, samples or reads — the simulation itself must be a pure
function of its scenario whether observation is on or off.
"""

import inspect

import pytest

from repro.obs import Observability, flight, instruments, interval, profiler, session
from repro.obs.interval import COLUMNS
from repro.scenarios.builder import build_simulation
from repro.scenarios.presets import tiny_scenario


def _config():
    return tiny_scenario(seed=7).but(duration=20.0)


@pytest.fixture(scope="module")
def baseline():
    return build_simulation(_config()).run()


def test_full_observability_is_bit_identical(baseline, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("obs")
    handle = build_simulation(_config())
    obs = Observability(
        metrics_interval=5.0, profile=True, flight_capacity=64
    ).attach(handle)
    result = obs.run(handle, flight_dump_path=tmp_path / "flight.txt")
    assert result == baseline


def test_trace_writer_is_bit_identical(baseline, tmp_path):
    from repro.sim.tracefile import TraceFileWriter

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
    obs = Observability(metrics_interval=5.0).attach(handle)
    result = obs.run(handle)
    assert result == baseline
    _assert_rows_sum_to(obs.interval_metrics.rows, result)


@pytest.mark.parametrize("protocol", ["dsr", "aodv"])
def test_every_counter_column_sums_to_the_result(protocol):
    handle = build_simulation(tiny_scenario(seed=2).but(duration=20.0, protocol=protocol))
    obs = Observability(metrics_interval=5.0).attach(handle)
    result = obs.run(handle)
    rows = obs.interval_metrics.rows
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
    Observability(metrics_interval=5.0).attach(handle)
    assert _subscription_state(handle.tracer) == _subscription_state(plain.tracer)


def test_observability_detach_leaves_tracer_clean():
    handle = build_simulation(_config())
    baseline = _subscription_state(handle.tracer)  # the collector's wiring
    obs = Observability(metrics_interval=5.0, flight_capacity=16).attach(handle)
    assert _subscription_state(handle.tracer) != baseline
    obs.detach()
    assert _subscription_state(handle.tracer) == baseline


def test_default_observability_attaches_nothing():
    handle = build_simulation(_config())
    baseline = _subscription_state(handle.tracer)
    obs = Observability()
    assert not obs.enabled
    obs.attach(handle)
    assert obs.interval_metrics is None
    assert obs.profiler is None
    assert obs.flight is None
    assert _subscription_state(handle.tracer) == baseline
    assert not handle.tracer.wants("no.such.kind")  # no wildcard leaked


def test_attached_but_idle_observability_adds_nothing_to_a_run(baseline, monkeypatch):
    """What the "< 2 % when attached but idle" budget means, without a
    stopwatch: the idle facade leaves the tracer, the engine and the event
    heap exactly as an unattached build has them, and the run that follows
    never calls into ``repro.obs``."""
    traced = build_simulation(_config())
    kinds = set()
    traced.tracer.subscribe("*", lambda record: kinds.add(record.kind))
    traced.run()

    plain = build_simulation(_config())
    # Guards the probe: it saw kinds the metrics collector does not ask for.
    assert any(not plain.tracer.wants(kind) for kind in kinds)
    handle = build_simulation(_config())
    Observability().attach(handle)
    assert _subscription_state(handle.tracer) == _subscription_state(plain.tracer)
    assert {k for k in kinds if handle.tracer.wants(k)} == {
        k for k in kinds if plain.tracer.wants(k)
    }
    assert not handle.sim.profiling_enabled  # no wall clock in the event loop
    assert handle.sim.pending_events == plain.sim.pending_events

    def entered(*args, **kwargs):
        raise AssertionError("an idle observability layer was called during the run")

    for module in (flight, instruments, interval, profiler, session):
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                for name, _ in inspect.getmembers(cls, inspect.isfunction):
                    monkeypatch.setattr(cls, name, entered)
    assert handle.run() == baseline
