"""Tests for :class:`SimulationService`: scheduling without new semantics.

The service has one execution path and two kinds of claimer, so the
contracts below take the mode as an input: ``threads`` is the service
alone (its in-process workers), ``fleet`` a ``distributed=True``
coordinator behind HTTP with in-test :class:`ShardWorker` threads — the
production claim/heartbeat/complete path minus the process boundary.
Each contract test runs both (failures name the arm).
"""

import threading
import time

import pytest

from repro.analysis.runner import run_many
from repro.errors import ConfigurationError
from repro.obs.instruments import Counter
from repro.scenarios.io import scenario_to_dict
from repro.service.client import ServiceError
from repro.service.core import (
    JobNotCancellableError,
    JobNotFoundError,
    JobNotReadyError,
    ServiceDrainingError,
    SimulationService,
)
from repro.service.jobs import Job, JobState
from repro.service.journal import JobJournal, replay
from repro.service.queue import AdmissionError

from tests.service.helpers import BlockingTask, CountingTask, fake_result, small_config
from tests.service.test_distributed import WorkerFleet
from tests.service.test_http import LiveServer

MODES = ("threads", "fleet")


def _service(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("task_fn", CountingTask())
    return SimulationService(**kwargs)


class ServiceIn:
    """One service in the given mode: ``.service`` is built at once (so a
    test can look at it first), ``with`` starts it — plus, for ``fleet``,
    the HTTP server and ``workers`` :class:`ShardWorker` threads — and
    drains it on the way out.  ``task_fn`` (``None``: real simulations),
    ``workers`` and ``retries`` reach whoever executes."""

    def __init__(self, mode, tmp_path, task_fn=None, workers=2, retries=1, **kwargs):
        self.mode = mode
        self.fleet = None
        if mode == "threads":
            self.service = SimulationService(
                workers=workers, task_fn=task_fn, retries=retries, **kwargs
            )
            return
        kwargs.setdefault("cache_dir", str(tmp_path / "coordinator-cache"))
        self.server = LiveServer(distributed=True, **kwargs)
        self.service = self.server.service
        self._fleet_args = dict(
            tmp_path=tmp_path, n=workers, task_fn=task_fn, retries=retries
        )

    def __enter__(self):
        if self.mode == "threads":
            return self.service.start()
        client = self.server.__enter__()
        self.fleet = WorkerFleet(client.base_url, **self._fleet_args)
        self.fleet.__enter__()
        return self.service

    def __exit__(self, *exc_info):
        if self.mode == "threads":
            self.service.drain(grace_s=5.0)  # not returned: a dict would swallow
            return  # whatever the block raised
        self.fleet.__exit__(*exc_info)
        self.server.__exit__(*exc_info)


def _wait_until_running(job, timeout=10.0):
    deadline = time.monotonic() + timeout
    while job.state is not JobState.RUNNING:
        assert time.monotonic() < deadline, f"job still {job.state}"
        time.sleep(0.01)


# -- the determinism contract ------------------------------------------------


def test_job_results_are_bit_identical_to_run_many(tmp_path):
    configs = [small_config(seed=s) for s in (1, 2)]
    expected = run_many(configs, processes=1)
    for mode in MODES:
        cache_dir = str(tmp_path / mode / "cache")
        with ServiceIn(mode, tmp_path / mode, cache_dir=cache_dir) as service:
            job = service.submit(configs)
            service.wait(job.id, timeout=120)
            assert job.state is JobState.DONE, mode
            assert service.job_results(job.id) == expected, mode


def test_results_keep_submission_order_with_duplicates(tmp_path):
    # Seven scenarios, six distinct, shards of two: three shards split
    # between two workers, whoever they are.
    seeds = (2, 1, 2, 3, 4, 5, 6)
    configs = [small_config(seed=s) for s in seeds]
    expected = [fake_result(scenario_to_dict(c)) for c in configs]
    for mode in MODES:
        task = CountingTask()
        harness = ServiceIn(mode, tmp_path / mode, task_fn=task, shard_size=2)
        with harness as service:
            job = service.submit(configs)
            service.wait(job.id, timeout=60)
            assert job.state is JobState.DONE, mode
            assert service.job_results(job.id) == expected, mode
            fleet = service.fleet_status()
        # Every seed ran exactly once: the board never double-assigns a
        # key, and the duplicate cost nothing.
        assert sorted(task.calls) == [1, 2, 3, 4, 5, 6], mode
        assert fleet["shards_completed"] == 3, mode
        assert fleet["leases_granted"] >= 3, mode


# -- caching across jobs -----------------------------------------------------


def test_warm_cache_job_executes_nothing(tmp_path):
    configs = [small_config(seed=s) for s in (1, 2, 3)]
    for mode in MODES:
        task = CountingTask()
        cache_dir = str(tmp_path / mode / "cache")
        harness = ServiceIn(
            mode, tmp_path / mode, task_fn=task, workers=1, cache_dir=cache_dir
        )
        with harness as service:
            first = service.submit(configs)
            service.wait(first.id, timeout=60)
            calls_after_first = list(task.calls)
            second = service.submit(configs)
            service.wait(second.id, timeout=60)
            assert second.state is JobState.DONE, mode
            assert service.job_results(second.id) == service.job_results(first.id)
            assert second.progress.cached == 3, mode
            assert second.progress.executed == 0, mode
        assert sorted(calls_after_first) == [1, 2, 3], mode
        assert task.calls == calls_after_first, mode  # the warm job ran nothing


def test_a_local_job_reads_and_writes_each_key_once(tmp_path, monkeypatch):
    """The shard board is a non-distributed service's one cache tier: its
    in-process workers hold no cache, so no key is looked up or stored twice."""
    from collections import Counter as Tally

    from repro.analysis.cache import ResultCache

    gets, puts = Tally(), Tally()
    real_get, real_put = ResultCache.get, ResultCache.put

    def counted_get(self, key):
        gets[key] += 1
        return real_get(self, key)

    def counted_put(self, key, result):
        puts[key] += 1
        return real_put(self, key, result)

    monkeypatch.setattr(ResultCache, "get", counted_get)
    monkeypatch.setattr(ResultCache, "put", counted_put)
    service = _service(workers=1, cache_dir=str(tmp_path / "cache")).start()
    try:
        job = service.submit([small_config(seed=s) for s in (1, 2, 3)])
        service.wait(job.id, timeout=30)
        assert job.state is JobState.DONE
    finally:
        service.drain(grace_s=5.0)
    assert sorted(gets.values()) == [1, 1, 1]
    assert sorted(puts.values()) == [1, 1, 1]


def test_concurrent_identical_jobs_execute_once(tmp_path):
    # Two identical submissions racing on two workers: the board's
    # owner/waiter tables must coalesce them onto one execution, and say so.
    config = small_config(seed=7)
    for mode in MODES:
        task = BlockingTask()
        with ServiceIn(mode, tmp_path / mode, task_fn=task) as service:
            first = service.submit([config])
            second = service.submit([config])
            assert task.started.wait(timeout=10), mode
            # The follower is on the board, waiting on the leader's shard.
            _wait_until_running(second)
            task.release.set()
            service.wait(first.id, timeout=30)
            service.wait(second.id, timeout=30)
            assert first.state is JobState.DONE, mode
            assert second.state is JobState.DONE, mode
            assert service.job_results(first.id) == service.job_results(second.id)
            assert (first.progress.deduped, second.progress.deduped) == (0, 1), mode
            assert service.metrics.snapshot()["service.sims.deduped"] == 1, mode
        assert task.calls == [7], mode  # exactly one simulation


# -- admission ---------------------------------------------------------------


def test_full_queue_refuses_without_dropping_accepted():
    service = _service(max_queue_depth=1)  # not started: jobs stay pending
    accepted = service.submit([small_config(seed=1)])
    with pytest.raises(AdmissionError):
        service.submit([small_config(seed=2)])
    assert [job.id for job in service.jobs()] == [accepted.id]
    assert accepted.state is JobState.PENDING
    service.start()
    service.wait(accepted.id, timeout=30)
    assert accepted.state is JobState.DONE  # the refusal cost it nothing
    service.drain(grace_s=5)


def test_backlog_waits_in_the_priority_queue_not_on_the_board():
    # One busy worker: the board takes one job's unclaimed shard and no
    # more, so the rest of the backlog is still pending — counted by
    # queue-depth admission and reordered by priority.
    task = BlockingTask()
    with _service(task_fn=task, workers=1, max_queue_depth=2) as service:
        running = service.submit([small_config(seed=1)])
        assert task.started.wait(timeout=10)
        on_board = service.submit([small_config(seed=2)])
        _wait_until_running(on_board)
        low = service.submit([small_config(seed=3)], priority=0)
        high = service.submit([small_config(seed=4)], priority=5)
        with pytest.raises(AdmissionError):
            service.submit([small_config(seed=5)])
        assert (low.state, high.state) == (JobState.PENDING, JobState.PENDING)
        task.release.set()
        for job in (running, on_board, low, high):
            service.wait(job.id, timeout=30)
            assert job.state is JobState.DONE
    assert task.calls == [1, 2, 4, 3]  # priority overtook submission order


def test_per_client_inflight_limit():
    service = _service(max_inflight_per_client=1)
    service.submit([small_config(seed=1)], client="greedy")
    with pytest.raises(AdmissionError):
        service.submit([small_config(seed=2)], client="greedy")
    service.submit([small_config(seed=3)], client="patient")  # others unaffected
    service.drain(grace_s=0)


def test_empty_and_invalid_submissions_are_rejected_up_front():
    service = _service()
    with pytest.raises(ConfigurationError):
        service.submit([])
    with pytest.raises(ConfigurationError):
        service.submit([{"num_nodes": "not-a-scenario"}])
    assert service.jobs() == []
    service.drain(grace_s=0)


# -- lifecycle ---------------------------------------------------------------


def test_cancel_pending_then_delete_record():
    service = _service(workers=1)  # not started
    job = service.submit([small_config(seed=1)])
    service.cancel(job.id)
    assert job.state is JobState.CANCELLED
    service.cancel(job.id)  # terminal: deletes the record
    with pytest.raises(JobNotFoundError):
        service.get_job(job.id)
    service.drain(grace_s=0)


def test_cancel_running_job_is_refused():
    task = BlockingTask()
    with _service(task_fn=task, workers=1) as service:
        job = service.submit([small_config(seed=1)])
        assert task.started.wait(timeout=10)
        with pytest.raises(JobNotCancellableError):
            service.cancel(job.id)
        task.release.set()
        service.wait(job.id, timeout=30)


def test_a_local_job_writes_no_sweep_manifest(tmp_path):
    """In-process workers run shards on the sweep executor, not a sweep
    engine per shard: a job leaves no line in the cache dir's manifest."""
    cache_dir = tmp_path / "cache"
    service = _service(workers=1, cache_dir=str(cache_dir), shard_size=2).start()
    try:
        job = service.submit([small_config(seed=s) for s in range(1, 6)])
        service.wait(job.id, timeout=30)
        assert job.state is JobState.DONE
    finally:
        service.drain(grace_s=5.0)
    assert not (cache_dir / "manifest.jsonl").exists()


def test_failed_job_reports_error_not_results(tmp_path):
    def broken(payload):
        raise ValueError("injected simulation failure")

    for mode in MODES:
        with ServiceIn(mode, tmp_path / mode, task_fn=broken, retries=0) as service:
            job = service.submit([small_config(seed=1)])
            service.wait(job.id, timeout=30)
            assert job.state is JobState.FAILED, mode
            assert "injected simulation failure" in job.error, mode
            with pytest.raises(JobNotReadyError):
                service.job_results(job.id)


def test_draining_service_refuses_submissions():
    service = _service()
    service.start()
    service.drain(grace_s=1)
    with pytest.raises(ServiceDrainingError):
        service.submit([small_config(seed=1)])


# -- journal integration -----------------------------------------------------


def test_restarted_service_requeues_and_completes(tmp_path):
    for mode in MODES:
        journal = str(tmp_path / mode / "journal.jsonl")
        task = BlockingTask()
        first = ServiceIn(
            mode, tmp_path / mode, task_fn=task, workers=1, journal_path=journal
        )
        with first as service:
            job = service.submit([small_config(seed=4)])
            assert task.started.wait(timeout=10), mode
            # Drain with a worker stuck mid-job: the job must be checkpointed.
            summary = service.drain(grace_s=0.2)
            assert summary["checkpointed"] == 1, mode
            task.release.set()  # let the abandoned worker unwind

        second = ServiceIn(
            mode, tmp_path / mode, task_fn=CountingTask(), workers=1,
            journal_path=journal,
        )
        recovered = second.service.get_job(job.id)
        assert recovered.recovered, mode
        assert recovered.state is JobState.PENDING, mode
        assert recovered.scenarios == job.scenarios, mode
        with second as service:
            service.wait(job.id, timeout=30)
            assert service.get_job(job.id).state is JobState.DONE, mode
            assert service.job_results(job.id), mode


@pytest.mark.parametrize("failure_recorded", [True, False])
def test_a_raising_journal_write_fails_that_job_not_the_dispatcher(
    tmp_path, failure_recorded, capsys
):
    """A full disk under the journal (or any bug in the transition) is one
    job's failure: the dispatcher thread outlives it and serves the next —
    even when the failure itself cannot be journaled either."""
    for mode in MODES:
        harness = ServiceIn(
            mode, tmp_path / mode, task_fn=fake_result,
            journal_path=str(tmp_path / mode / "journal.jsonl"),
        )
        journal = harness.service._journal
        raised = []

        def disk_full_once(record, raised=raised):
            def write(job, *args, **kwargs):
                if record.__name__ not in raised:
                    raised.append(record.__name__)
                    raise OSError(28, "No space left on device")
                record(job, *args, **kwargs)

            return write

        journal.record_state = disk_full_once(journal.record_state)
        if not failure_recorded:
            journal.record_failed = disk_full_once(journal.record_failed)
        with harness as service:
            unlucky = service.submit([small_config(seed=1)])
            service.wait(unlucky.id, timeout=30)
            assert unlucky.state is JobState.FAILED, mode
            assert "No space left on device" in unlucky.error, mode
            following = service.submit([small_config(seed=2)])
            service.wait(following.id, timeout=30)
            assert following.state is JobState.DONE, mode
            assert service.job_results(following.id), mode
            assert service.counts()["pending"] == 0, mode
        assert raised == ["record_state", "record_failed"][: 2 - failure_recorded], mode
    # What could not be journaled is at least said.
    assert ("No space left on device" in capsys.readouterr().err) is not failure_recorded


def _journal_pending(path, job_id, scenarios):
    journal = JobJournal(path)
    journal.record_submit(Job(id=job_id, client="c", priority=0, scenarios=scenarios))
    journal.close()


def test_replay_admits_a_recovered_payloads_canonical_rebuild(tmp_path):
    """A payload journaled as written (a compat default spelled out, a
    defaulted field left out) comes back as its rebuild, like a submit."""
    journal = tmp_path / "journal.jsonl"
    canonical = scenario_to_dict(small_config(seed=3))
    spelled = dict(canonical, radio_profile="wavelan")
    sparse = dict(canonical)
    del sparse["ifq_capacity"]
    _journal_pending(journal, "old", [spelled, sparse])

    service = _service(journal_path=str(journal))
    recovered = service.get_job("old")
    assert recovered.state is JobState.PENDING and recovered.recovered
    assert recovered.scenarios == [canonical, canonical]
    with service:
        assert service.wait("old", timeout=30).state is JobState.DONE
    assert replay(journal)[0].scenarios == [canonical, canonical]


def test_replay_fails_a_payload_that_no_longer_rebuilds(tmp_path):
    """A job journaled under a since-retired value ends ``failed`` with the
    rebuild's error; the coordinator starts and serves the rest."""
    journal = tmp_path / "journal.jsonl"
    canonical = scenario_to_dict(small_config(seed=3))
    _journal_pending(journal, "retired", [canonical, dict(canonical, protocol="flooding")])
    _journal_pending(journal, "live", [canonical])

    task = CountingTask()
    with _service(journal_path=str(journal), task_fn=task) as service:
        retired = service.get_job("retired")
        assert retired.state is JobState.FAILED
        assert "unknown protocol 'flooding'" in retired.error
        assert service.wait("live", timeout=30).state is JobState.DONE
        assert service.metrics.snapshot()["service.jobs.failed"] == 1
    assert task.calls == [3]
    revived = {job.id: job for job in replay(journal)}
    assert revived["retired"].state is JobState.FAILED
    assert revived["retired"].error == retired.error


def test_terminal_jobs_survive_restart(tmp_path):
    journal = str(tmp_path / "journal.jsonl")
    with _service(journal_path=journal) as service:
        job = service.submit([small_config(seed=5)])
        service.wait(job.id, timeout=30)
        expected = service.job_results(job.id)
    revived = _service(journal_path=journal)
    assert revived.get_job(job.id).state is JobState.DONE
    assert revived.job_results(job.id) == expected
    revived.drain(grace_s=0)


# -- metrics -----------------------------------------------------------------


def test_metrics_count_jobs_and_sims(tmp_path):
    task = CountingTask()
    with _service(task_fn=task, cache_dir=str(tmp_path / "cache")) as service:
        configs = [small_config(seed=s) for s in (1, 2)]
        for _ in range(2):
            job = service.submit(configs)
            service.wait(job.id, timeout=30)
        snapshot = service.metrics.snapshot()
    assert snapshot["service.jobs.submitted"] == 2
    assert snapshot["service.jobs.done"] == 2
    assert snapshot["service.sims.executed"] == 2
    assert snapshot["service.sims.cache_hits"] >= 2  # the whole second job
    assert snapshot["service.job.wall_s.count"] == 2


def test_sims_executed_counts_every_concurrent_delivery(tmp_path):
    """``complete_shard`` runs on concurrent HTTP-handler and worker threads
    and ``Counter.inc`` is a bare read-modify-write: with that window held
    open, a bump made outside the metrics lock loses updates."""

    class SlowCounter(Counter):
        def inc(self, amount=1):
            value = self.value
            time.sleep(0.001)  # another thread's inc lands here unless serialised
            self.value = value + amount

    threads, per_thread = 8, 6
    service = SimulationService(
        distributed=True, shard_size=1, cache_dir=str(tmp_path / "cache")
    )
    service.metrics.sims_executed = SlowCounter("service.sims.executed")
    with service:
        job = service.submit(
            [small_config(seed=s) for s in range(1, threads * per_thread + 1)]
        )
        claims = []
        deadline = time.monotonic() + 10.0
        while len(claims) < threads * per_thread and time.monotonic() < deadline:
            claim = service.claim_shard("stress")  # no board-side task_fn: we deliver
            if claim is None:
                time.sleep(0.01)
            else:
                claims.append(claim)
        assert len(claims) == threads * per_thread
        start = threading.Barrier(threads)
        accepted = []  # executed counts of accepted deliveries (list.append is atomic)

        def deliver(mine):
            start.wait(timeout=10.0)
            for executed, claim in mine:
                results = {
                    task["key"]: fake_result(task["scenario"]) for task in claim["tasks"]
                }
                for _ in range(2):  # the re-delivery is a duplicate: not counted
                    reply = service.complete_shard(
                        claim["id"], results, stats={"executed": executed}
                    )
                    if reply["accepted"]:
                        accepted.append(executed)

        numbered = list(enumerate(claims, start=1))
        pool = [
            threading.Thread(target=deliver, args=(numbered[i::threads],), daemon=True)
            for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in pool)
        service.wait(job.id, timeout=10)
    assert len(accepted) == threads * per_thread
    assert service.metrics.sims_executed.value == sum(accepted)


def test_wait_times_out_without_terminal_state():
    service = _service()  # never started: the job cannot finish
    job = service.submit([small_config(seed=1)])
    waited = service.wait(job.id, timeout=0.2)
    assert waited.state is JobState.PENDING
    service.drain(grace_s=0)


# -- who claims --------------------------------------------------------------


def test_idle_in_process_worker_wakes_on_submission_not_on_a_poll():
    # An in-process worker with nothing to do sleeps on the board's
    # wake-up; its poll_s only paces a worker the service turned away.  A
    # worker that slept poll_s between empty claims would sit out this
    # whole test.
    service = _service(workers=1)
    for worker in service._local_workers:
        worker.poll_s = 30.0
    with service:
        time.sleep(0.3)  # the worker has claimed, found nothing, and blocked
        job = service.submit([small_config(seed=1)])
        service.wait(job.id, timeout=5)
        assert job.state is JobState.DONE


def test_lease_endpoints_stay_closed_on_a_non_distributed_service():
    with LiveServer(workers=1, task_fn=CountingTask()) as client:
        for call in (
            lambda: client.claim("intruder"),
            lambda: client.lease_heartbeat("l-0"),
            lambda: client.complete("l-0", {}),
            client.leases,
        ):
            with pytest.raises(ServiceError) as refused:
                call()
            assert refused.value.status == 409
        assert client.health()["distributed"] is False
        # ...and the board still serves the service's own workers.
        assert len(client.fetch(client.submit([small_config(seed=1)]), timeout=30)) == 1


def test_distributed_mode_still_needs_a_cache_dir():
    with pytest.raises(ConfigurationError):
        SimulationService(distributed=True)


def test_a_payloads_spelling_keys_the_scenario_it_rebuilds_to(tmp_path):
    """The board keys what admission rebuilt, not how the client spelled it:
    a payload that writes a compat default out, or leaves a defaulted field
    out, resolves from the entry the canonical payload's job left."""
    config = small_config(seed=7)
    canonical = scenario_to_dict(config)
    spelled = dict(canonical, radio_profile="wavelan")
    sparse = dict(canonical)
    del sparse["ifq_capacity"]
    service = SimulationService(
        distributed=True, shard_size=1, cache_dir=str(tmp_path / "cache")
    )
    with service:
        first = service.submit(canonical)
        deadline = time.monotonic() + 10.0
        claim = None
        while claim is None and time.monotonic() < deadline:
            claim = service.claim_shard("w1")
            if claim is None:
                time.sleep(0.01)
        assert claim is not None
        service.complete_shard(
            claim["id"],
            {task["key"]: fake_result(task["scenario"]) for task in claim["tasks"]},
            stats={"executed": 1},
        )
        assert service.wait(first.id, timeout=10).state is JobState.DONE
        granted = service._board.leases_granted

        second = service.submit([spelled, sparse])
        assert second.scenarios == [canonical, canonical]
        assert service.wait(second.id, timeout=10).state is JobState.DONE
        assert service.claim_shard("w2") is None
        assert service._board.leases_granted == granted
        assert service.job_results(second.id) == service.job_results(first.id) * 2
