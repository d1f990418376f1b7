"""Unit tests for the flight recorder."""

import pytest

from repro.obs.flight import FlightRecorder
from repro.sim.trace import Tracer


def test_ring_keeps_only_the_newest_records():
    tracer = Tracer()
    recorder = FlightRecorder(tracer, capacity=3)
    for i in range(5):
        tracer.emit(float(i), "k", n=i)
    assert len(recorder) == 3
    assert [r.fields["n"] for r in recorder.records] == [2, 3, 4]
    assert recorder.records_seen == 5


def test_kind_filter_records_selectively():
    tracer = Tracer()
    recorder = FlightRecorder(tracer, capacity=10, kinds=["mac.fail"])
    tracer.emit(1.0, "mac.tx", node=1)
    tracer.emit(2.0, "mac.fail", node=2)
    assert [r.kind for r in recorder.records] == ["mac.fail"]
    # A kind-filtered recorder does not force unrelated guarded emits.
    assert not tracer.wants("mac.tx")


def test_rejects_non_positive_capacity():
    with pytest.raises(ValueError):
        FlightRecorder(Tracer(), capacity=0)


def test_detach_is_idempotent_and_keeps_ring_readable():
    tracer = Tracer()
    recorder = FlightRecorder(tracer, capacity=4)
    tracer.emit(1.0, "k")
    recorder.detach()
    recorder.detach()
    tracer.emit(2.0, "k")  # no longer recorded
    assert len(recorder) == 1
    assert not tracer.wants("k")


def test_format_header_reports_evictions():
    tracer = Tracer()
    recorder = FlightRecorder(tracer, capacity=2)
    for i in range(3):
        tracer.emit(float(i), "k", n=i)
    text = recorder.format()
    lines = text.splitlines()
    assert lines[0].startswith("# flight recorder: last 2 of 3 record(s)")
    assert "1 older evicted" in lines[0]
    assert lines[1] == '{"kind": "k", "n": 1, "t": 1.0}'


def test_dump_writes_parseable_trace(tmp_path):
    from repro.sim.tracefile import iter_records

    tracer = Tracer()
    recorder = FlightRecorder(tracer, capacity=8)
    tracer.emit(1.5, "mac.tx", node=3, frame_kind="rts")
    path = recorder.dump(tmp_path / "flight.txt")
    records = list(iter_records(path))  # header comment is skipped
    assert records == [{"t": 1.5, "kind": "mac.tx", "node": 3, "frame_kind": "rts"}]


def test_armed_dumps_on_exception_and_reraises(tmp_path):
    tracer = Tracer()
    recorder = FlightRecorder(tracer, capacity=8)
    path = tmp_path / "crash.txt"
    with pytest.raises(RuntimeError):
        with recorder.armed(path):
            tracer.emit(1.0, "k", n=1)
            raise RuntimeError("fault")
    assert path.exists()
    assert '{"kind": "k", "n": 1, "t": 1.0}' in path.read_text()


def test_armed_does_not_dump_on_success(tmp_path):
    tracer = Tracer()
    recorder = FlightRecorder(tracer, capacity=8)
    path = tmp_path / "crash.txt"
    with recorder.armed(path):
        tracer.emit(1.0, "k")
    assert not path.exists()


# -- FlightRecordingTaskFn ---------------------------------------------------


class FakeHandle:
    """Stands in for build_simulation's handle: emits one record, then
    either returns or faults."""

    def __init__(self, fail=False):
        self.tracer = Tracer()
        self._fail = fail

    def run(self):
        self.tracer.emit(1.0, "mac.tx", node=7)
        if self._fail:
            raise RuntimeError("sim fault")
        return "result"


def install_fake_sim(monkeypatch, fail=False):
    import repro.scenarios.builder as builder
    import repro.scenarios.io as sio

    handles = []

    def fake_build(config):
        handle = FakeHandle(fail=fail)
        handles.append(handle)
        return handle

    monkeypatch.setattr(builder, "build_simulation", fake_build)
    monkeypatch.setattr(sio, "scenario_from_dict", lambda payload: payload)
    return handles


def test_task_fn_runs_clean_without_dumping(tmp_path, monkeypatch):
    from repro.obs.flight import FlightRecordingTaskFn

    install_fake_sim(monkeypatch)
    task = FlightRecordingTaskFn(tmp_path / "flight")
    assert task({"seed": 3}) == "result"
    assert task.dumps == []
    assert not (tmp_path / "flight").exists()  # directory only made on dump
    assert task.dump_now() is None  # nothing in flight any more


def test_task_fn_dumps_ring_on_crash_and_reraises(tmp_path, monkeypatch):
    from repro.obs.flight import FlightRecordingTaskFn

    install_fake_sim(monkeypatch, fail=True)
    task = FlightRecordingTaskFn(tmp_path / "flight")
    with pytest.raises(RuntimeError):
        task({"seed": 5})
    [dump] = task.dumps
    assert dump.name.startswith("crash-") and "seed5" in dump.name
    assert '"kind": "mac.tx", "node": 7' in dump.read_text()


def test_dump_now_snapshots_the_run_in_flight(tmp_path, monkeypatch):
    from repro.obs.flight import FlightRecordingTaskFn

    handles = install_fake_sim(monkeypatch)
    task = FlightRecordingTaskFn(tmp_path / "flight")
    captured = {}

    def run_and_snapshot():
        handles[-1].tracer.emit(2.0, "mac.fail", node=1)
        captured["path"] = task.dump_now(tag="sigterm")
        return "result"

    class SnappedHandle(FakeHandle):
        def run(self):
            return run_and_snapshot()

    import repro.scenarios.builder as builder

    def build(config):
        handle = SnappedHandle()
        handles.append(handle)
        return handle

    monkeypatch.setattr(builder, "build_simulation", build)
    assert task({"seed": 9}) == "result"
    assert captured["path"] is not None
    assert captured["path"].name.startswith("sigterm-")
    assert '"kind": "mac.fail", "node": 1' in captured["path"].read_text()


def test_task_fn_pickles_without_live_recorder(tmp_path):
    import pickle

    from repro.obs.flight import FlightRecordingTaskFn

    task = FlightRecordingTaskFn(tmp_path / "flight", capacity=7)
    clone = pickle.loads(pickle.dumps(task))
    assert clone.capacity == 7
    assert clone.dump_now() is None


def test_task_fn_rejects_bad_capacity(tmp_path):
    from repro.obs.flight import FlightRecordingTaskFn

    with pytest.raises(ValueError):
        FlightRecordingTaskFn(tmp_path, capacity=0)


def test_task_fn_runs_a_real_tiny_simulation(tmp_path):
    from repro.metrics.collector import SimulationResult
    from repro.obs.flight import FlightRecordingTaskFn
    from repro.scenarios import presets
    from repro.scenarios.io import scenario_to_dict

    task = FlightRecordingTaskFn(tmp_path / "flight")
    payload = scenario_to_dict(presets.tiny_scenario(seed=1).but(duration=2.0))
    result = task(payload)
    assert isinstance(result, SimulationResult)
    assert task.dumps == []
