"""Unit tests for the fleet tracer and its pure trace analysis."""

import pytest

from repro.obs.fleet import (
    SPAN_KINDS,
    FleetTracer,
    Span,
    critical_path,
    find_root,
    format_trace_context,
    new_span_id,
    new_trace_id,
    parse_trace_context,
    trace_breakdown,
    trace_coverage,
    union_seconds,
    validate_spans,
)


class FakeClock:
    def __init__(self, t=100.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def make_tracer(**kwargs):
    clock = FakeClock()
    kwargs.setdefault("clock", clock)
    tracer = FleetTracer(proc=kwargs.pop("proc", "test"), **kwargs)
    return tracer, clock


def span_dict(trace="t-1", kind="task.run", start=0.0, end=1.0, parent=None,
              span_id=None, proc="p"):
    out = {
        "trace_id": trace,
        "span_id": span_id or new_span_id(),
        "kind": kind,
        "proc": proc,
        "start": start,
    }
    if end is not None:
        out["end"] = end
    if parent is not None:
        out["parent_id"] = parent
    return out


# -- ids and context ---------------------------------------------------------


def test_ids_are_unique_and_shaped():
    trace_ids = {new_trace_id() for _ in range(64)}
    assert len(trace_ids) == 64
    assert all(t.startswith("t-") for t in trace_ids)
    assert len({new_span_id() for _ in range(64)}) == 64


def test_trace_context_round_trips():
    header = format_trace_context("t-abc", "span1")
    assert parse_trace_context(header) == ("t-abc", "span1")


@pytest.mark.parametrize(
    "junk", [None, "", "no-separator", "/tail-only", "head-only/", "  ", 42]
)
def test_trace_context_junk_is_none(junk):
    assert parse_trace_context(junk) is None


# -- Span (de)serialisation --------------------------------------------------


def test_span_roundtrip_through_dict():
    span = Span(
        trace_id="t-1", span_id="s1", kind="submit", proc="coordinator",
        start=1.5, parent_id="root", end=2.5, attrs={"n": 3},
    )
    again = Span.from_dict(span.to_dict())
    assert again == span
    assert again.duration() == pytest.approx(1.0)


def test_open_span_has_zero_duration_and_no_end_key():
    span = Span(trace_id="t", span_id="s", kind="job", proc="p", start=1.0)
    assert span.duration() == 0.0
    assert "end" not in span.to_dict()


@pytest.mark.parametrize(
    "mutation",
    [
        {"trace_id": ""},
        {"span_id": None},
        {"kind": 7},
        {"proc": ""},
        {"start": "soon"},
        {"end": "later"},
        {"parent_id": 5},
        {"attrs": "not-a-dict"},
    ],
)
def test_span_from_dict_rejects_junk(mutation):
    blob = span_dict()
    blob.update(mutation)
    with pytest.raises(ValueError):
        Span.from_dict(blob)


# -- FleetTracer -------------------------------------------------------------


def test_start_finish_stores_span():
    tracer, clock = make_tracer()
    span = tracer.start("submit", "t-1", attrs={"k": 1})
    clock.advance(2.0)
    tracer.finish(span, extra=True)
    [stored] = tracer.trace("t-1")
    assert stored.kind == "submit"
    assert stored.duration() == pytest.approx(2.0)
    assert stored.attrs == {"k": 1, "extra": True}


def test_unknown_kind_is_an_error():
    tracer, _ = make_tracer()
    with pytest.raises(ValueError):
        tracer.start("no.such.stage", "t-1")


def test_disabled_tracer_records_nothing():
    tracer, _ = make_tracer(enabled=False)
    assert tracer.start("submit", "t-1") is None
    assert tracer.finish(None) is None
    assert tracer.add_spans([span_dict()]) == 0
    assert tracer.trace("t-1") == []


def test_no_trace_id_means_no_span():
    tracer, _ = make_tracer()
    assert tracer.start("submit", None) is None


def test_add_spans_validates_and_skips_junk():
    tracer, _ = make_tracer()
    good = span_dict(trace="t-9")
    assert tracer.add_spans([good, {"garbage": True}, "not-a-dict-at-all" and {}]) == 1
    assert [s.span_id for s in tracer.trace("t-9")] == [good["span_id"]]


def test_on_finish_hook_sees_finished_spans():
    seen = []
    tracer, _ = make_tracer()
    tracer.set_on_finish(lambda span: seen.append((span.kind, span.duration())))
    tracer.finish(tracer.start("submit", "t-1"))
    tracer.add_spans([span_dict(trace="t-1", kind="task.run", start=0, end=2)])
    tracer.add_spans(
        [span_dict(trace="t-1", kind="dispatch")], record_metrics=False
    )
    assert [kind for kind, _ in seen] == ["submit", "task.run"]


def test_trace_eviction_is_fifo():
    tracer, _ = make_tracer(max_traces=2)
    for n in range(3):
        tracer.finish(tracer.start("submit", f"t-{n}"))
    assert tracer.trace("t-0") == []
    assert len(tracer.trace("t-1")) == 1
    assert len(tracer.trace("t-2")) == 1
    assert tracer.trace_count() == 2


def test_discard_forgets_a_trace():
    tracer, _ = make_tracer()
    tracer.finish(tracer.start("submit", "t-1"))
    tracer.discard("t-1")
    tracer.discard("t-1")  # idempotent
    assert tracer.trace("t-1") == []
    assert tracer.trace_count() == 0


def test_trace_dicts_sorted_by_start():
    tracer, clock = make_tracer()
    late = tracer.start("dispatch", "t-1")
    clock.advance(1.0)
    early = Span(trace_id="t-1", span_id="a", kind="submit", proc="p",
                 start=0.0, end=0.5)
    tracer.finish(late)
    tracer.add_spans([early.to_dict()])
    kinds = [blob["kind"] for blob in tracer.trace_dicts("t-1")]
    assert kinds == ["submit", "dispatch"]


# -- analysis ----------------------------------------------------------------


def test_union_seconds_merges_overlaps():
    assert union_seconds([]) == 0.0
    assert union_seconds([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert union_seconds([(1, 1), (2, 1)]) == 0.0  # empty/inverted dropped


def test_find_root_prefers_job_kind():
    spans = [
        span_dict(kind="dispatch", start=0, end=10, span_id="d"),
        span_dict(kind="job", start=0, end=5, span_id="j"),
    ]
    assert find_root(spans)["span_id"] == "j"


def test_find_root_falls_back_to_longest_orphan():
    spans = [
        span_dict(kind="dispatch", start=0, end=10, span_id="d", parent="gone"),
        span_dict(kind="task.run", start=0, end=3, span_id="t", parent="d"),
    ]
    assert find_root(spans)["span_id"] == "d"
    assert find_root([]) is None


def test_validate_spans_flags_duplicates_and_cycles():
    a = span_dict(span_id="a", parent="b")
    b = span_dict(span_id="b", parent="a")
    errors = validate_spans([a, b])
    assert any("cycle" in err for err in errors)
    errors = validate_spans([span_dict(span_id="x"), span_dict(span_id="x")])
    assert any("duplicate" in err for err in errors)


def test_dangling_parent_is_not_an_error():
    assert validate_spans([span_dict(parent="never-journaled")]) == []


def test_trace_coverage_clips_to_root_window():
    root = span_dict(kind="job", span_id="r", start=0, end=10)
    inside = span_dict(kind="dispatch", span_id="d", parent="r", start=1, end=4)
    outside = span_dict(kind="task.run", span_id="t", parent="d", start=8, end=15)
    cov = trace_coverage([root, inside, outside])
    assert cov["root_s"] == pytest.approx(10.0)
    assert cov["covered_s"] == pytest.approx(5.0)  # [1,4] + [8,10]
    assert cov["coverage"] == pytest.approx(0.5)


def test_critical_path_follows_latest_ending_children():
    root = span_dict(kind="job", span_id="r", start=0, end=10)
    a = span_dict(kind="dispatch", span_id="a", parent="r", start=0, end=4)
    b = span_dict(kind="shard.lease", span_id="b", parent="r", start=2, end=9)
    leaf = span_dict(kind="shard.execute", span_id="c", parent="b", start=3, end=8)
    path = critical_path([root, a, b, leaf])
    assert [step["span_id"] for step in path] == ["r", "b", "c"]
    assert path[0]["self_s"] == pytest.approx(10 - 7)
    assert path[-1]["self_s"] == pytest.approx(5.0)


def test_critical_path_survives_parent_cycles():
    a = span_dict(span_id="a", parent="b", start=0, end=4)
    b = span_dict(span_id="b", parent="a", start=0, end=5)
    assert critical_path([a, b])  # terminates; no hang


def test_breakdown_flags_the_straggler():
    spans = [span_dict(kind="job", span_id="r", start=0, end=100, proc="coord")]
    for n, busy in enumerate([10, 11, 12, 50]):
        spans.append(
            span_dict(kind="shard.execute", span_id=f"w{n}", parent="r",
                      start=0, end=busy, proc=f"worker-{n}")
        )
    breakdown = trace_breakdown(spans)
    assert breakdown["stragglers"] == ["worker-3"]
    assert breakdown["by_proc"]["worker-3"]["busy_s"] == pytest.approx(50.0)
    assert breakdown["by_kind"]["shard.execute"]["count"] == 4


def test_breakdown_single_worker_is_never_a_straggler():
    spans = [
        span_dict(kind="job", span_id="r", start=0, end=100),
        span_dict(kind="shard.execute", span_id="w", parent="r", start=0, end=90,
                  proc="only-worker"),
    ]
    assert trace_breakdown(spans)["stragglers"] == []


def test_span_kinds_cover_the_documented_stages():
    assert {"job", "submit", "queue.wait", "dispatch", "shard.lease",
            "shard.execute", "task.run", "cache.lookup", "cache.remote",
            "result.deliver", "journal.fsync"} == set(SPAN_KINDS)
