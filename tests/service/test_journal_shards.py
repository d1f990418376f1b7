"""Journals that hold lease records still read; new ones hold none.

Coordinators up to commit 4f005c6 journaled a shard-level audit trail
(``shards`` / ``lease`` / ``heartbeat`` / ``shard_done`` /
``lease_expired``) that no recovery path read.  Nothing writes those
records any more — the ``shard.lease`` spans carry the same history — but a
journal that holds them must fold and compact exactly as it did.

``fixtures/parent_commit/journal_with_leases.jsonl`` is such a journal,
written by that commit: one traced 12-point job on a ``distributed=True``
coordinator (``shard_size=2``, ``lease_ttl_s=0.4``, two ``fake_result``
workers) whose first shard was claimed by a ghost worker that sent one
heartbeat and then let the lease expire — all five record kinds, 79 spans.
``journal_with_leases_compacted.jsonl`` is what that commit's
``compact(replay(...), traces=replay_spans(...))`` made of it on a clock
stepping 0.25 s per reading: its ``submit`` / ``spans`` / ``done`` lines are
that commit's jobs, spans and results, serialised by that commit.
"""

import itertools
import json
import shutil
import time
from collections import Counter
from pathlib import Path

from repro.analysis.cache import result_to_payload
from repro.obs.fleet import FleetTracer, validate_spans
from repro.service.jobs import JobState
from repro.service.journal import JobJournal, replay, replay_spans

from tests.service.helpers import claim_when_dispatched, fake_result, small_config
from tests.service.test_distributed import WorkerFleet, distributed_server

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "parent_commit"
WITH_LEASES = FIXTURES / "journal_with_leases.jsonl"
LEASE_EVENTS = {"shards", "lease", "heartbeat", "shard_done", "lease_expired"}


def _events(path):
    return Counter(
        json.loads(line)["event"]
        for line in Path(path).read_text(encoding="utf-8").splitlines()
    )


def test_the_fixture_holds_every_lease_record_kind():
    events = _events(WITH_LEASES)
    assert LEASE_EVENTS <= set(events)
    assert events["lease"] == 7 and events["lease_expired"] == 1


def test_job_replay_ignores_lease_records(tmp_path):
    """Lease records must not disturb job-level crash recovery."""
    submit, spans, done = (
        json.loads(line)
        for line in (FIXTURES / "journal_with_leases_compacted.jsonl")
        .read_text(encoding="utf-8")
        .splitlines()
    )
    [replayed] = replay(WITH_LEASES)
    assert replayed.id == submit["job"]["id"] == done["id"]
    assert replayed.state is JobState.DONE and not replayed.recovered
    assert replayed.scenarios == submit["job"]["scenarios"]
    assert replayed.trace_id == submit["job"]["trace_id"]
    assert replayed.progress.as_dict() == done["progress"]
    assert [result_to_payload(r) for r in replayed.results] == done["results"]
    # ...nor the span fold, which shares the line reader.
    traces = replay_spans(WITH_LEASES)
    assert traces == {replayed.id: spans["spans"]}
    assert len(spans["spans"]) == 79 and validate_spans(spans["spans"]) == []

    # Cut off before its terminal record, the same journal recovers the
    # job as pending with its scenarios intact, lease chatter and all.
    cut = tmp_path / "journal.jsonl"
    with open(WITH_LEASES, encoding="utf-8") as lines:
        cut.write_text(
            "".join(line for line in lines if json.loads(line)["event"] != "done")
        )
    [recovered] = replay(cut)
    assert recovered.state is JobState.PENDING and recovered.recovered
    assert recovered.scenarios == replayed.scenarios


def test_compaction_drops_lease_records(tmp_path, monkeypatch):
    path = tmp_path / "journal.jsonl"
    shutil.copy(WITH_LEASES, path)
    jobs, traces = replay(path), replay_spans(path)
    ticks = itertools.count(4000)
    monkeypatch.setattr(time, "time", lambda: next(ticks) / 4.0)
    journal = JobJournal(path)
    journal.compact(jobs, traces=traces)
    journal.close()
    assert path.read_bytes() == (
        FIXTURES / "journal_with_leases_compacted.jsonl"
    ).read_bytes()
    assert not LEASE_EVENTS & set(_events(path))
    [replayed] = replay(path)
    assert replayed.scenarios == jobs[0].scenarios
    assert replay_spans(path) == traces


def test_a_fleet_job_with_an_expired_lease_journals_no_lease_record(tmp_path):
    """The job the fixture was recorded from, served by this tree: the
    journal holds job transitions and spans, and the lease history is in
    the spans."""
    journal = tmp_path / "journal.jsonl"
    configs = [small_config(seed=s) for s in range(1, 13)]
    server = distributed_server(
        tmp_path,
        journal_path=str(journal),
        lease_ttl_s=0.4,
        tracer=FleetTracer(proc="coordinator"),
    )
    with server as client:
        job_id = client.submit(configs)
        ghost = claim_when_dispatched(client, "ghost-worker")
        client.lease_heartbeat(ghost["id"])
        with WorkerFleet(client.base_url, tmp_path, n=2, task_fn=fake_result):
            assert client.wait(job_id, timeout=60)["state"] == "done"
    assert set(_events(journal)) == {"submit", "state", "spans", "done"}
    leases = [
        span
        for span in replay_spans(journal)[job_id]
        if span["kind"] == "shard.lease"
    ]
    outcomes = Counter(span["attrs"]["outcome"] for span in leases)
    assert outcomes == {"accepted": 6, "expired": 1}
    [expired] = [s for s in leases if s["attrs"]["outcome"] == "expired"]
    assert expired["attrs"]["worker"] == "ghost-worker"
    assert expired["attrs"]["lease"] == ghost["id"]
