"""Tests for the priority job queue and the admission policy."""

import pytest

from repro.service.jobs import Job, JobState
from repro.service.queue import AdmissionError, AdmissionPolicy, JobQueue

from tests.service.helpers import small_config
from repro.scenarios.io import scenario_to_dict


def _job(priority=0, client="default", seed=1):
    return Job(
        id=f"job-p{priority}-s{seed}",
        client=client,
        priority=priority,
        scenarios=[scenario_to_dict(small_config(seed=seed))],
    )


# -- ordering -----------------------------------------------------------------


def test_pop_returns_highest_priority_first():
    queue = JobQueue()
    low, high = _job(priority=0), _job(priority=5)
    queue.push(low)
    queue.push(high)
    assert queue.pop(timeout=0) is high
    assert queue.pop(timeout=0) is low


def test_fifo_within_a_priority_level():
    queue = JobQueue()
    jobs = [_job(priority=1, seed=s) for s in (1, 2, 3)]
    for job in jobs:
        queue.push(job)
    assert [queue.pop(timeout=0) for _ in jobs] == jobs


def test_pop_times_out_empty():
    assert JobQueue().pop(timeout=0.01) is None


def test_cancelled_jobs_are_skipped_lazily():
    queue = JobQueue()
    doomed, survivor = _job(priority=9, seed=1), _job(priority=0, seed=2)
    queue.push(doomed)
    queue.push(survivor)
    doomed.state = JobState.CANCELLED  # cancel without touching the heap
    assert queue.pop(timeout=0) is survivor
    assert queue.pop(timeout=0) is None


# -- admission ----------------------------------------------------------------


def test_admission_refuses_full_queue_with_retry_hint():
    policy = AdmissionPolicy(max_queue_depth=2, max_inflight_per_client=None)
    policy.admit(queue_depth=1, client_inflight=0, client="x")
    with pytest.raises(AdmissionError) as excinfo:
        policy.admit(queue_depth=2, client_inflight=0, client="x")
    assert "queue full" in str(excinfo.value)
    assert excinfo.value.retry_after_s > 0


def test_admission_refuses_greedy_client():
    policy = AdmissionPolicy(max_queue_depth=None, max_inflight_per_client=2)
    policy.admit(queue_depth=100, client_inflight=1, client="greedy")
    with pytest.raises(AdmissionError) as excinfo:
        policy.admit(queue_depth=100, client_inflight=2, client="greedy")
    assert "greedy" in str(excinfo.value)


def test_admission_bounds_can_be_disabled():
    policy = AdmissionPolicy(max_queue_depth=None, max_inflight_per_client=0)
    policy.admit(queue_depth=10_000, client_inflight=10_000, client="x")
