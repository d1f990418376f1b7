"""Tests for ``repro-trace job`` — the fleet-trace explainer."""

import io
import json

import pytest

from repro.obs import tracecli


def sample_trace():
    """A two-process job trace: coordinator stages + one worker shard."""
    spans = [
        {"trace_id": "t-1", "span_id": "r", "kind": "job", "proc": "coordinator",
         "start": 0.0, "end": 10.0, "attrs": {"job": "j-1"}},
        {"trace_id": "t-1", "span_id": "s", "kind": "submit",
         "proc": "coordinator", "start": 0.0, "end": 0.1, "parent_id": "r"},
        {"trace_id": "t-1", "span_id": "q", "kind": "queue.wait",
         "proc": "coordinator", "start": 0.1, "end": 1.0, "parent_id": "r"},
        {"trace_id": "t-1", "span_id": "l", "kind": "shard.lease",
         "proc": "coordinator", "start": 1.0, "end": 9.0, "parent_id": "r"},
        {"trace_id": "t-1", "span_id": "x", "kind": "shard.execute",
         "proc": "w1", "start": 1.5, "end": 8.5, "parent_id": "l"},
        {"trace_id": "t-1", "span_id": "d", "kind": "result.deliver",
         "proc": "coordinator", "start": 9.0, "end": 10.0, "parent_id": "l"},
    ]
    return {"id": "j-1", "trace_id": "t-1", "spans": spans}


def run_job(capsys, *argv):
    rc = tracecli.main(["job", *argv])
    out = capsys.readouterr().out
    return rc, out


def write_trace(tmp_path, doc):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_job_renders_the_explainer(tmp_path, capsys):
    rc, out = run_job(capsys, write_trace(tmp_path, sample_trace()))
    assert rc == 0
    assert "job      : j-1" in out
    assert "trace    : t-1" in out
    assert "2 process(es): coordinator, w1" in out
    assert "gantt" in out
    assert "where did the time go" in out
    assert "critical path" in out
    # the chain that kept completion waiting: job -> lease -> deliver
    assert out.index("shard.lease") < out.index("result.deliver")


def test_job_json_mode_is_machine_readable(tmp_path, capsys):
    rc, out = run_job(capsys, "--json", write_trace(tmp_path, sample_trace()))
    assert rc == 0
    doc = json.loads(out)
    assert doc["id"] == "j-1"
    assert doc["spans"] == 6
    assert doc["problems"] == []
    assert [step["kind"] for step in doc["critical_path"]] == [
        "job", "shard.lease", "result.deliver",
    ]
    assert doc["breakdown"]["coverage"]["coverage"] == pytest.approx(1.0)


def test_job_accepts_bare_span_list_and_jsonl(tmp_path, capsys):
    spans = sample_trace()["spans"]
    as_list = tmp_path / "list.json"
    as_list.write_text(json.dumps(spans))
    rc, out = run_job(capsys, str(as_list))
    assert rc == 0 and "where did the time go" in out

    as_jsonl = tmp_path / "spans.jsonl"
    as_jsonl.write_text("\n".join(json.dumps(span) for span in spans))
    rc, out = run_job(capsys, str(as_jsonl))
    assert rc == 0 and "where did the time go" in out


def test_job_reads_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(sample_trace())))
    rc, out = run_job(capsys, "-")
    assert rc == 0
    assert "job      : j-1" in out


def test_job_empty_trace_is_fine(tmp_path, capsys):
    rc, out = run_job(
        capsys, write_trace(tmp_path, {"id": "j", "trace_id": None, "spans": []})
    )
    assert rc == 0
    assert "spans    : 0" in out


def test_job_reports_structural_problems(tmp_path, capsys):
    doc = sample_trace()
    doc["spans"].append(dict(doc["spans"][1]))  # duplicate span_id
    rc, out = run_job(capsys, write_trace(tmp_path, doc))
    assert rc == 0
    assert "problem  : duplicate span_id" in out


def test_job_bad_payload_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"not": "a trace"}))
    rc = tracecli.main(["job", str(path)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_job_missing_file_is_a_clean_error(capsys):
    rc = tracecli.main(["job", "/no/such/file.json"])
    assert rc == 2


def test_job_url_is_a_path_like_any_other(capsys):
    """A trace comes from a file or stdin (``repro-submit trace <id> |
    repro-trace job -``); the tool opens no connection of its own."""
    url = "http://127.0.0.1:1/v1/jobs/feedface/trace"
    assert tracecli.main(["job", url]) == 2
    assert f"{url}: no such trace file" in capsys.readouterr().err


def test_job_folds_gantt_past_max_spans(tmp_path, capsys):
    doc = sample_trace()
    rc, out = run_job(capsys, "--max-spans", "2", write_trace(tmp_path, doc))
    assert rc == 0
    assert "more span(s) not drawn" in out
