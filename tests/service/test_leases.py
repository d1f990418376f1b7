"""Unit tests for the shard board: packing, leases, expiry, assembly."""

import json
from pathlib import Path

from repro.analysis import runner
from repro.analysis.cache import ResultCache, scenario_hash
from repro.analysis.runner import SweepEngine
from repro.core.config import DsrConfig
from repro.scenarios.io import scenario_from_dict, scenario_to_dict
from repro.scenarios.presets import scaled_scenario
from repro.service import leases
from repro.service.jobs import Job, JobState
from repro.service.leases import LeaseNotFoundError, ShardBoard
from repro.service.worker import ShardWorker

import pytest

from tests.service.helpers import fake_result, small_config

NOW = 1_000.0


def payloads(*configs):
    return [scenario_to_dict(config) for config in configs]


def make_job(scenarios, job_id="job-1"):
    return Job(id=job_id, client="pytest", priority=0, scenarios=scenarios)


def make_board(tmp_path, **kwargs):
    kwargs.setdefault("shard_size", 2)
    return ShardBoard(ResultCache(tmp_path / "cache"), **kwargs)


def deliver(board, lease, now=NOW, doc=None):
    """Execute a lease's tasks with fake_result and complete it.

    Real workers snapshot the claim document at claim time (payloads are
    dropped from the board once the shard resolves); pass ``doc`` to mimic
    a worker that claimed earlier and delivers late.
    """
    if doc is None:
        doc = lease.claim_doc()
    results = {
        task["key"]: fake_result(task["scenario"]) for task in doc["tasks"]
    }
    return board.complete(lease.id, results, now=now, executed=len(results))


# -- packing ------------------------------------------------------------------


def test_pack_respects_shard_size_and_covers_every_key(tmp_path):
    board = make_board(tmp_path, shard_size=2)
    scenarios = payloads(*(small_config(seed=s) for s in range(1, 6)))
    job = make_job(scenarios)
    assert board.add_job(job) is None
    counts = board.counts(NOW)
    assert counts["shards_pending"] == 3  # 5 tasks, 2 per shard
    claimed_keys = []
    while True:
        lease = board.claim("w", NOW)
        if lease is None:
            break
        assert len(lease.shard.keys) <= 2
        claimed_keys.extend(lease.shard.keys)
    assert sorted(claimed_keys) == sorted(scenario_hash(p) for p in scenarios)


def test_pack_puts_the_costlier_grid_point_first(tmp_path):
    board = make_board(tmp_path, shard_size=4)
    # Two grid points x two seeds, the cheap point submitted first.
    scenarios = payloads(
        small_config(seed=1, pause=30.0),
        small_config(seed=2, pause=30.0),
        small_config(seed=1, pause=0.0),
        small_config(seed=2, pause=0.0),
    )
    board.add_job(make_job(scenarios))
    lease = board.claim("w", NOW)
    # One shard holds all four; the pause-0 replications (costlier:
    # continuous motion) lead it, each point's seeds in submission order.
    planned = [lease.shard.payloads[key] for key in lease.shard.keys]
    assert [(p["pause_time"], p["seed"]) for p in planned] == [
        (0.0, 1), (0.0, 2), (30.0, 1), (30.0, 2),
    ]


def fig2_shaped_grid():
    """Variants x pauses x seeds, replications adjacent (as ``series.sweep``
    and the ledger's ``fig2_grid`` submit them)."""
    return [
        scaled_scenario(pause_time=pause, dsr=dsr, seed=seed, duration=6.0)
        for dsr in (DsrConfig.base(), DsrConfig.all_techniques())
        for pause in (0.0, 3.0, 6.0)
        for seed in (1, 2)
    ]


PARENT_PLAN = json.loads(
    (
        Path(__file__).resolve().parent
        / "fixtures" / "parent_commit" / "fig2_shard_plan.json"
    ).read_text()
)


@pytest.mark.parametrize("shard_size", [2, 4, 5])
def test_fig2_shard_plan_equals_the_parent_commits(shard_size):
    """The fixture is what the parent commit's ``_pack`` produced for this
    grid with its (since deleted) batching knob at the default of 1."""
    scenarios = payloads(*fig2_shaped_grid())
    keys = [scenario_hash(payload) for payload in scenarios]
    assert keys == PARENT_PLAN["submitted"]
    shards = ShardBoard(shard_size=shard_size)._pack(
        "job", keys, dict(zip(keys, scenarios))
    )
    assert [shard.keys for shard in shards] == [
        [keys[index] for index in shard]
        for shard in PARENT_PLAN["plan_as_submitted_indices"][str(shard_size)]
    ]


def test_engine_and_board_order_tasks_through_one_planner(monkeypatch):
    """Both executors call ``runner.plan_dispatch``: swapping it for
    shortest-first reverses the engine's execution order and the board's
    shard plan together."""
    assert leases.plan_dispatch is runner.plan_dispatch
    scenarios = payloads(*(small_config(seed=1, pause=p) for p in (0.0, 6.0, 12.0)))

    def execution_order():
        ran = []
        engine = SweepEngine(
            processes=1, task_fn=lambda payload: ran.append(payload["pause_time"])
        )
        engine.run([scenario_from_dict(payload) for payload in scenarios])
        return ran

    def shard_order():
        keys = [scenario_hash(payload) for payload in scenarios]
        shards = ShardBoard(shard_size=1)._pack("job", keys, dict(zip(keys, scenarios)))
        return [shard.payloads[shard.keys[0]]["pause_time"] for shard in shards]

    assert execution_order() == shard_order() == [0.0, 6.0, 12.0]

    def shortest_first(tasks):
        return sorted(tasks, key=lambda task: runner.estimate_cost(task[1]))

    monkeypatch.setattr(runner, "plan_dispatch", shortest_first)
    monkeypatch.setattr(leases, "plan_dispatch", shortest_first)
    assert execution_order() == shard_order() == [12.0, 6.0, 0.0]


def test_warm_cache_resolves_without_shards(tmp_path):
    board = make_board(tmp_path)
    scenarios = payloads(small_config(seed=1), small_config(seed=2))
    for payload in scenarios:
        board.cache.put(scenario_hash(payload), fake_result(payload))
    job = make_job(scenarios)
    results = board.add_job(job)
    assert results == [fake_result(p) for p in scenarios]
    assert job.progress.cached == 2
    assert board.counts(NOW)["shards_pending"] == 0


def test_duplicate_scenarios_collapse_to_one_task(tmp_path):
    board = make_board(tmp_path, shard_size=8)
    payload = scenario_to_dict(small_config(seed=7))
    job = make_job([payload, payload, payload])
    assert board.add_job(job) is None
    lease = board.claim("w", NOW)
    assert len(lease.shard.keys) == 1
    outcome = deliver(board, lease)
    [(finished_job, results)] = outcome.finished
    assert finished_job is job
    assert results == [fake_result(payload)] * 3


# -- the lease protocol -------------------------------------------------------


def test_claim_heartbeat_and_complete_lifecycle(tmp_path):
    board = make_board(tmp_path, shard_size=8, lease_ttl_s=10.0)
    scenarios = payloads(small_config(seed=1), small_config(seed=2))
    job = make_job(scenarios)
    board.add_job(job)
    assert board.claim("other", NOW) is not None or True  # claimed below
    board_counts = board.counts(NOW)
    assert board_counts["leases_active"] == 1
    [lease] = board.lease_docs(NOW)
    renewed = board.heartbeat(lease["id"], NOW + 5.0)
    assert renewed.deadline == NOW + 15.0
    # The renewed lease survives an expiry sweep at its old deadline.
    assert board.expire_leases(NOW + 10.5) == []
    outcome = board.complete(
        lease["id"],
        {
            scenario_hash(p): fake_result(p) for p in scenarios
        },
        now=NOW + 6.0,
        executed=2,
    )
    assert outcome.accepted and not outcome.late
    [(finished_job, results)] = outcome.finished
    assert finished_job.progress.executed == 2
    assert results == [fake_result(p) for p in scenarios]
    # Results are now on disk: a second identical job is a pure cache hit.
    job2 = make_job(scenarios, job_id="job-2")
    assert board.add_job(job2) == results


def test_claim_on_empty_queue_returns_none(tmp_path):
    board = make_board(tmp_path)
    assert board.claim("w", NOW) is None
    assert board.worker_count(NOW) == 1  # the claim still registered it


def test_heartbeat_unknown_lease_raises(tmp_path):
    board = make_board(tmp_path)
    with pytest.raises(LeaseNotFoundError):
        board.heartbeat("l-missing", NOW)


def test_expired_lease_requeues_shard_at_the_front(tmp_path):
    board = make_board(tmp_path, shard_size=2, lease_ttl_s=5.0)
    scenarios = payloads(*(small_config(seed=s) for s in range(1, 5)))
    board.add_job(make_job(scenarios))
    first = board.claim("dead-worker", NOW)
    [expired] = board.expire_leases(NOW + 5.1)
    assert expired.id == first.id
    assert expired.shard.requeues == 1
    with pytest.raises(LeaseNotFoundError):
        board.heartbeat(first.id, NOW + 5.2)
    # The requeued shard is handed out first (it has waited longest).
    retry = board.claim("live-worker", NOW + 5.2)
    assert retry.shard.id == first.shard.id
    counts = board.counts(NOW + 5.2)
    assert counts["leases_expired"] == 1
    assert counts["shards_requeued"] == 1


def test_late_delivery_from_an_expired_lease_is_accepted_once(tmp_path):
    board = make_board(tmp_path, shard_size=8, lease_ttl_s=5.0)
    scenarios = payloads(small_config(seed=1))
    job = make_job(scenarios)
    board.add_job(job)
    slow = board.claim("slow-worker", NOW)
    board.expire_leases(NOW + 6.0)  # slow-worker presumed dead; requeued
    retry = board.claim("fast-worker", NOW + 6.0)
    retry_doc = retry.claim_doc()
    # The presumed-dead worker delivers first, late: accepted.
    outcome = deliver(board, slow, now=NOW + 7.0)
    assert outcome.accepted and outcome.late
    assert [j.id for j, _ in outcome.finished] == [job.id]
    assert job.state is JobState.PENDING  # caller (service) flips state
    # The retry worker's duplicate delivery is dropped harmlessly.
    duplicate = deliver(board, retry, now=NOW + 8.0, doc=retry_doc)
    assert not duplicate.accepted
    assert duplicate.finished == [] and duplicate.failed == []


def test_unknown_lease_complete_raises(tmp_path):
    board = make_board(tmp_path)
    with pytest.raises(LeaseNotFoundError):
        board.complete("l-never-granted", {}, now=NOW)


# -- cross-job dedup ----------------------------------------------------------


def test_jobs_sharing_keys_ride_one_shard(tmp_path):
    board = make_board(tmp_path, shard_size=8)
    shared = payloads(small_config(seed=1), small_config(seed=2))
    job_a = make_job(shared, job_id="job-a")
    job_b = make_job(shared + payloads(small_config(seed=3)), job_id="job-b")
    board.add_job(job_a)
    lease_a = board.claim("w", NOW)
    board.add_job(job_b)  # seeds 1-2 in flight: only seed 3 packs anew
    lease_b = board.claim("w", NOW)
    assert len(lease_b.shard.keys) == 1
    outcome_b = deliver(board, lease_b)
    assert outcome_b.finished == []  # job-b still waits on job-a's shard
    outcome_a = deliver(board, lease_a)
    finished_ids = sorted(j.id for j, _ in outcome_a.finished)
    assert finished_ids == ["job-a", "job-b"]
    for finished_job, results in outcome_a.finished:
        expected = [
            fake_result(p) for p in finished_job.scenarios
        ]
        assert results == expected


# -- failures -----------------------------------------------------------------


def test_failed_keys_fail_every_waiting_job_with_detail(tmp_path):
    board = make_board(tmp_path, shard_size=8)
    scenarios = payloads(small_config(seed=1), small_config(seed=2))
    job = make_job(scenarios)
    board.add_job(job)
    lease = board.claim("w", NOW)
    bad_key = scenario_hash(scenarios[0])
    results = {scenario_hash(scenarios[1]): fake_result(scenarios[1])}
    outcome = board.complete(
        lease.id, results, failures={bad_key: "ValueError: boom"}, now=NOW
    )
    assert outcome.accepted
    assert outcome.finished == []
    [(failed_job, error)] = outcome.failed
    assert failed_job is job
    assert "1 shard task(s) failed" in error and "ValueError: boom" in error
    # The good result is cached; the failed key is not poisoned — a new
    # job re-packs it for a fresh attempt.
    retry_job = make_job(scenarios, job_id="job-retry")
    assert board.add_job(retry_job) is None
    assert retry_job.progress.cached == 1
    retry_lease = board.claim("w", NOW)
    assert retry_lease.shard.keys == [bad_key]


def test_delivery_omitting_a_key_counts_as_failure(tmp_path):
    board = make_board(tmp_path, shard_size=8)
    scenarios = payloads(small_config(seed=1), small_config(seed=2))
    job = make_job(scenarios)
    board.add_job(job)
    lease = board.claim("w", NOW)
    outcome = board.complete(
        lease.id,
        {scenario_hash(scenarios[0]): fake_result(scenarios[0])},
        now=NOW,
    )
    [(failed_job, error)] = outcome.failed
    assert failed_job is job
    assert "omitted" in error


# -- the worker over a bare board ---------------------------------------------


class BoardClient:
    """The lease verbs answered by a bare board; keeps every delivery's
    ``(results, failures, stats)`` and the board's outcome for it."""

    def __init__(self, board):
        self.board = board
        self.deliveries = []
        self.outcomes = []

    def claim(self, worker):
        lease = self.board.claim(worker, NOW)
        return None if lease is None else lease.claim_doc()

    def lease_heartbeat(self, lease_id):
        return {"id": lease_id}

    def complete(self, lease_id, results, failures=None, stats=None, spans=None):
        self.deliveries.append((dict(results), dict(failures or {}), stats))
        outcome = self.board.complete(
            lease_id, results, failures, now=NOW, executed=stats["executed"]
        )
        self.outcomes.append(outcome)
        return {"accepted": outcome.accepted, "late": outcome.late}

    def post_spans(self, spans):
        return 0


def test_a_partly_failed_shard_delivers_what_settled(tmp_path):
    """One task of a two-task shard fails after its retry: the other
    task's result is still delivered, the shard's job fails naming the one
    failure, and a second job waiting on the good key resolves."""
    board = make_board(tmp_path, shard_size=2)
    good, bad = payloads(small_config(seed=1), small_config(seed=2))
    job = make_job([good, bad])
    waiting = make_job([good], job_id="job-waiting")
    assert board.add_job(job) is None
    assert board.add_job(waiting) is None  # waits on job-1's shard
    attempts = []

    def fails_seed_2(payload):
        attempts.append(payload["seed"])
        if payload["seed"] == 2:
            raise ValueError("boom")
        return fake_result(payload)

    client = BoardClient(board)
    worker = ShardWorker(
        client, worker_id="w", cache_dir=str(tmp_path / "tier"),
        task_fn=fails_seed_2, retries=1,
    )
    assert worker.run(max_shards=1) == 1
    assert sorted(attempts) == [1, 2, 2]  # the bad task alone was retried
    [(results, failures, stats)] = client.deliveries
    assert results == {scenario_hash(good): fake_result(good)}
    assert list(failures) == [scenario_hash(bad)]
    assert "ValueError: boom" in failures[scenario_hash(bad)]
    assert stats == {"executed": 1, "cache_hits": 0}
    [outcome] = client.outcomes
    [(failed_job, error)] = outcome.failed
    assert failed_job is job
    assert "1 shard task(s) failed" in error and "ValueError: boom" in error
    assert outcome.finished == [(waiting, [fake_result(good)])]


# -- mixed versions -----------------------------------------------------------


class OldCoordinatorClient(BoardClient):
    """:class:`BoardClient` answering as a coordinator from before the
    batching knob's removal did: every claim document still carries the
    knob."""

    def claim(self, worker):
        doc = super().claim(worker)
        return None if doc is None else {**doc, "seed_batch": 4}


def test_worker_executes_a_claim_from_an_older_coordinator(tmp_path):
    board = make_board(tmp_path, shard_size=8)
    scenarios = payloads(*(small_config(seed=s) for s in (1, 2, 3)))
    job = make_job(scenarios)
    board.add_job(job)
    client = OldCoordinatorClient(board)
    worker = ShardWorker(client, worker_id="new", task_fn=fake_result, cache=None)
    assert worker.run(max_shards=1) == 1
    [outcome] = client.outcomes
    assert outcome.accepted and not outcome.late
    [(finished_job, results)] = outcome.finished
    assert finished_job is job
    assert results == [fake_result(payload) for payload in scenarios]
    assert job.progress.executed == 3
