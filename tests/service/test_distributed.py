"""End-to-end tests for distributed mode: coordinator + in-process workers.

These spin up a real ``SimulationService(distributed=True)`` behind a real
``ServiceHTTPServer`` and drive it with :class:`ShardWorker` instances
running in threads — the exact production claim/heartbeat/complete path,
minus the process boundary (the SIGKILL variant lives in
``tests/service/smoke_distributed.py`` and the CI smoke job).

Only what a remote fleet adds lives here (lease expiry, lost heartbeats
and deliveries, fleet metrics); the contracts both modes share — results,
order, warm cache, dedup, failure, drain + restart — are in
``test_service.py``, which borrows :class:`WorkerFleet` for its ``fleet``
arm.
"""

import threading
from functools import partial

from repro.analysis.cache import ResultCache
from repro.scenarios.io import scenario_to_dict
from repro.service.client import ServiceClient, ServiceError, TransientServiceError
from repro.service.worker import ShardWorker

from tests.service.helpers import (
    BlockingTask,
    CountingTask,
    claim_when_dispatched,
    fake_result,
    small_config,
)
from tests.service.test_http import REMOTE_TIER_NAMES, LiveServer


def distributed_server(tmp_path, **kwargs):
    kwargs.setdefault("cache_dir", str(tmp_path / "coordinator-cache"))
    kwargs.setdefault("distributed", True)
    kwargs.setdefault("shard_size", 2)
    kwargs.setdefault("lease_ttl_s", 10.0)
    return LiveServer(**kwargs)


class FaultyClient(ServiceClient):
    """A worker's client that keeps each delivery's ``(stats, ack)`` and can
    lose every heartbeat, or its first ``lost_completes`` deliveries, before
    they leave the process (a lost delivery's ack is ``None``)."""

    def __init__(self, *args, lose_heartbeats=False, lost_completes=0, **kwargs):
        super().__init__(*args, **kwargs)
        self.lose_heartbeats = lose_heartbeats
        self.lost_completes = lost_completes
        self.deliveries = []

    def lease_heartbeat(self, lease_id):
        if self.lose_heartbeats:
            raise TransientServiceError("heartbeat lost")
        return super().lease_heartbeat(lease_id)

    def complete(self, lease_id, results, failures=None, stats=None, spans=None):
        if len(self.deliveries) < self.lost_completes:
            self.deliveries.append((stats, None))
            raise ServiceError("delivery lost")
        ack = super().complete(lease_id, results, failures, stats, spans=spans)
        self.deliveries.append((stats, ack))
        return ack


class WorkerFleet:
    """N ShardWorkers on threads against one coordinator URL."""

    def __init__(
        self, base_url, tmp_path, n=2, task_fns=None, client_cls=ServiceClient,
        **worker_kwargs,
    ):
        self.workers = []
        self.threads = []
        worker_kwargs.setdefault("poll_s", 0.05)
        for i in range(n):
            client = client_cls(base_url, client_id=f"fleet-{i}", timeout=30.0)
            worker = ShardWorker(
                client,
                worker_id=f"w{i}",
                cache_dir=str(tmp_path / f"worker-{i}-cache"),
                task_fn=task_fns[i] if task_fns else worker_kwargs.get("task_fn"),
                **{k: v for k, v in worker_kwargs.items() if k != "task_fn"},
            )
            self.workers.append(worker)

    def __enter__(self):
        for worker in self.workers:
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            self.threads.append(thread)
        return self.workers

    def __exit__(self, *exc_info):
        for worker in self.workers:
            worker.stop()
        for thread in self.threads:
            thread.join(timeout=30.0)


def test_dead_worker_lease_expires_and_fleet_recovers(tmp_path):
    """A worker that claims a shard and vanishes loses no grid points."""
    configs = [small_config(seed=s) for s in range(1, 5)]
    expected = [fake_result(scenario_to_dict(c)) for c in configs]
    task = CountingTask()
    with distributed_server(
        tmp_path, shard_size=2, lease_ttl_s=0.4
    ) as client:
        job_id = client.submit(configs)
        # A "worker" that claims and then dies without a single heartbeat.
        ghost = claim_when_dispatched(client, "ghost-worker")
        assert len(ghost["tasks"]) == 2
        # The live worker finishes everything, including the ghost's
        # shard once the janitor expires its lease (ttl 0.4 s).
        with WorkerFleet(
            client.base_url, tmp_path, n=1, task_fn=task
        ):
            status = client.wait(job_id, timeout=60)
            fleet = client.leases()["fleet"]
        assert status["state"] == "done"
        assert client.results(job_id) == expected
    assert sorted(task.calls) == [1, 2, 3, 4]
    assert fleet["leases_expired"] >= 1
    assert fleet["shards_requeued"] >= 1


def test_a_live_holder_that_lost_its_lease_delivers_second_and_is_dropped(tmp_path):
    """A holder whose heartbeats are lost outlives its lease (ttl 0.4 s):
    the requeued shard runs again on a second worker, whose delivery is
    accepted, and the holder's late one reads ``accepted: false``."""
    configs = [small_config(seed=s) for s in (1, 2)]
    expected = [fake_result(scenario_to_dict(c)) for c in configs]
    slow, fast = BlockingTask(), CountingTask()
    with distributed_server(tmp_path, lease_ttl_s=0.4) as client:
        job_id = client.submit(configs)
        with WorkerFleet(
            client.base_url,
            tmp_path / "holder",
            n=1,
            task_fn=slow,
            client_cls=partial(FaultyClient, lose_heartbeats=True),
        ) as (holder,):
            assert slow.started.wait(timeout=30)
            with WorkerFleet(
                client.base_url,
                tmp_path / "second",
                n=1,
                task_fn=fast,
                client_cls=FaultyClient,
            ) as (second,):
                assert client.wait(job_id, timeout=60)["state"] == "done"
            slow.release.set()  # leaving the block delivers the shard in hand
        fleet = client.leases()["fleet"]
        assert client.results(job_id) == expected
    assert sorted(slow.calls) == sorted(fast.calls) == [1, 2]
    assert [ack["accepted"] for _, ack in second.client.deliveries] == [True]
    assert [(ack["accepted"], ack["late"]) for _, ack in holder.client.deliveries] == [
        (False, True)
    ]
    assert fleet["leases_expired"] >= 1 and fleet["shards_requeued"] >= 1
    assert len(ResultCache(tmp_path / "coordinator-cache")) == len(configs)


def test_a_lost_delivery_is_resolved_from_the_workers_local_tier(tmp_path):
    """A worker whose first ``complete`` never arrives claims the shard
    again once its lease expires, and delivers it from its local tier:
    nothing runs twice."""
    configs = [small_config(seed=s) for s in (1, 2)]
    task = CountingTask()
    with distributed_server(tmp_path, lease_ttl_s=0.4) as client:
        job_id = client.submit(configs)
        with WorkerFleet(
            client.base_url,
            tmp_path,
            n=1,
            task_fn=task,
            client_cls=partial(FaultyClient, lost_completes=1),
        ) as (worker,):
            assert client.wait(job_id, timeout=60)["state"] == "done"
        assert client.results(job_id) == [
            fake_result(scenario_to_dict(c)) for c in configs
        ]
    assert sorted(task.calls) == [1, 2]
    assert [stats for stats, _ in worker.client.deliveries] == [
        {"executed": 2, "cache_hits": 0},
        {"executed": 0, "cache_hits": 2},
    ]
    assert worker.client.deliveries[1][1]["accepted"] is True
    assert (worker.shards_done, worker.executed) == (1, 0)


def test_fleet_metrics_appear_in_prometheus_exposition(tmp_path):
    configs = [small_config(seed=s) for s in (1, 2)]
    with distributed_server(tmp_path) as client:
        with WorkerFleet(
            client.base_url, tmp_path, n=1, task_fn=CountingTask()
        ):
            client.fetch(client.submit(configs), timeout=60)
        text = client.metrics_text()
        healthz = client.health()
    assert healthz["distributed"] is True
    for name in (
        "repro_service_fleet_workers",
        "repro_service_fleet_leases_granted",
        "repro_service_fleet_shards_completed",
    ):
        assert name in text
    assert not any(name in text for name in REMOTE_TIER_NAMES)
