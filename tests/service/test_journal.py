"""Tests for the JSONL job journal and its crash-recovery replay."""

import itertools
import json
import time
from pathlib import Path

from repro.scenarios.io import scenario_to_dict
from repro.service.jobs import Job, JobState
from repro.service.journal import (
    JOURNAL_FORMAT_VERSION,
    JobJournal,
    replay,
    replay_spans,
)

from tests.service.helpers import fake_result, small_config


def _job(job_id="j1", seeds=(1,), priority=0, client="c"):
    return Job(
        id=job_id,
        client=client,
        priority=priority,
        scenarios=[scenario_to_dict(small_config(seed=s)) for s in seeds],
    )


def test_replay_of_missing_journal_is_empty(tmp_path):
    assert replay(tmp_path / "never-written.jsonl") == []


def test_done_job_roundtrips_with_results(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    job = _job(seeds=(1, 2), priority=3)
    journal.record_submit(job)
    job.state = JobState.RUNNING
    journal.record_state(job)
    job.results = [fake_result(p) for p in job.scenarios]
    job.state = JobState.DONE
    journal.record_done(job)
    journal.close()

    [replayed] = replay(path)
    assert replayed.id == job.id
    assert replayed.state is JobState.DONE
    assert replayed.priority == 3
    assert replayed.scenarios == job.scenarios
    assert replayed.results == job.results  # bit-identical result records
    assert not replayed.recovered


def test_pending_and_running_jobs_recover_as_pending(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    queued, mid_flight = _job("queued"), _job("mid-flight", seeds=(2,))
    journal.record_submit(queued)
    journal.record_submit(mid_flight)
    mid_flight.state = JobState.RUNNING
    journal.record_state(mid_flight)
    journal.close()

    replayed = {job.id: job for job in replay(path)}
    assert replayed["queued"].state is JobState.PENDING
    assert replayed["queued"].recovered
    assert replayed["mid-flight"].state is JobState.PENDING
    assert replayed["mid-flight"].recovered


def test_checkpointed_job_recovers_as_pending(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    job = _job("drained")
    journal.record_submit(job)
    job.state = JobState.RUNNING
    journal.record_state(job)
    journal.record_checkpoint(job)
    journal.close()

    [replayed] = replay(path)
    assert replayed.state is JobState.PENDING
    assert replayed.recovered


def test_truncated_trailing_line_is_skipped(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    journal.record_submit(_job("ok"))
    journal.record_spans("ok", "trace-1", [{"span_id": "sp-1"}])
    journal.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"event": "submit", "job": {"id": "torn", "scen')  # crash mid-write

    # Every fold reads through the same line reader: both survive.
    [replayed] = replay(path)
    assert replayed.id == "ok"
    assert replay_spans(path) == {"ok": [{"span_id": "sp-1"}]}


def test_failed_cancelled_and_deleted(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    failed, cancelled, deleted = _job("f"), _job("c", seeds=(2,)), _job("d", seeds=(3,))
    for job in (failed, cancelled, deleted):
        journal.record_submit(job)
    failed.error = "boom"
    failed.state = JobState.FAILED
    journal.record_failed(failed)
    cancelled.state = JobState.CANCELLED
    journal.record_cancelled(cancelled)
    journal.record_deleted(deleted.id)
    journal.close()

    replayed = {job.id: job for job in replay(path)}
    assert set(replayed) == {"f", "c"}
    assert replayed["f"].state is JobState.FAILED
    assert replayed["f"].error == "boom"
    assert replayed["c"].state is JobState.CANCELLED


def test_done_with_unloadable_results_reruns(tmp_path):
    # A result-record refactor orphans journaled results: the job must come
    # back pending (re-run is cheap and correct), never DONE with garbage.
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    job = _job("stale")
    journal.record_submit(job)
    journal.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(
            json.dumps(
                {
                    "event": "done",
                    "id": "stale",
                    "results": [{"no_such_field": 1}],
                }
            )
            + "\n"
        )

    [replayed] = replay(path)
    assert replayed.state is JobState.PENDING
    assert replayed.recovered
    assert replayed.results is None


def test_compaction_drops_history_but_keeps_jobs(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    done, pending = _job("done-job"), _job("pending-job", seeds=(2,))
    for job in (done, pending):
        journal.record_submit(job)
    done.state = JobState.RUNNING
    journal.record_state(done)
    done.results = [fake_result(p) for p in done.scenarios]
    done.state = JobState.DONE
    journal.record_done(done)
    lines_before = len(path.read_text().splitlines())

    journal.compact([done, pending])
    journal.close()
    lines_after = len(path.read_text().splitlines())
    assert lines_after < lines_before  # the running transition is gone
    replayed = {job.id: job for job in replay(path)}
    assert replayed["done-job"].state is JobState.DONE
    assert replayed["done-job"].results == done.results
    assert replayed["pending-job"].state is JobState.PENDING


def test_journal_ignores_writes_after_close(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    journal.record_submit(_job("early"))
    journal.close()
    journal.record_submit(_job("late"))  # a straggling worker; must not raise
    assert [job.id for job in replay(path)] == ["early"]


# -- record shapes are a fixed point -----------------------------------------

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "parent_commit"


def write_reference_journal(path, set_clock):
    """Every job-level record through the append path, then a compaction,
    on a clock that steps 0.25 s per reading (so a builder that read the
    clock once more, or once less, shifts every later ``t``).  Returns the
    file's bytes before and after :meth:`JobJournal.compact`.

    ``fixtures/parent_commit/journal_{appended,compacted}.jsonl`` are what
    this wrote at commit 23df195, where ``compact`` built its own dicts.
    """
    ticks = itertools.count(4000)
    set_clock(lambda: next(ticks) / 4.0)
    span = {"trace_id": "t-1", "span_id": "s-1", "kind": "job", "proc": "c", "start": 1.0}
    jobs = []
    for index, state in enumerate(
        (JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.PENDING)
    ):
        job = _job(f"job-{state.value}", seeds=(index + 1, index + 5), priority=index)
        job.submitted_at, job.started_at, job.finished_at = 10.0, 11.0, 13.5 + index
        jobs.append(job)
    done, failed, cancelled, pending = jobs
    done.trace_id = "t-1"
    journal = JobJournal(path)
    for job in jobs:
        journal.record_submit(job)
    journal.record_spans(done.id, done.trace_id, [span])
    done.results = [fake_result(p) for p in done.scenarios]
    done.progress.completed = done.progress.executed = 2
    done.state = JobState.DONE
    journal.record_done(done)
    failed.error = "2 tasks failed"
    failed.state = JobState.FAILED
    journal.record_failed(failed)
    cancelled.state = JobState.CANCELLED
    journal.record_cancelled(cancelled)
    appended = Path(path).read_bytes()
    journal.compact(jobs, traces={done.id: [span], pending.id: [span]})
    journal.close()
    return appended, Path(path).read_bytes()


def test_journal_lines_match_the_parent_commit_byte_for_byte(tmp_path, monkeypatch):
    appended, compacted = write_reference_journal(
        tmp_path / "journal.jsonl", lambda clock: monkeypatch.setattr(time, "time", clock)
    )
    assert appended == (FIXTURES / "journal_appended.jsonl").read_bytes()
    assert compacted == (FIXTURES / "journal_compacted.jsonl").read_bytes()
    assert JOURNAL_FORMAT_VERSION == 1
