"""End-to-end tests for distributed mode: coordinator + in-process workers.

These spin up a real ``SimulationService(distributed=True)`` behind a real
``ServiceHTTPServer`` and drive it with :class:`ShardWorker` instances
running in threads — the exact production claim/heartbeat/complete path,
minus the process boundary (the SIGKILL variant lives in
``tests/service/smoke_distributed.py`` and the CI smoke job).

Only what a remote fleet adds lives here (lease expiry, the remote cache
tier, fleet metrics); the contracts both modes share — results, order,
warm cache, dedup, failure, drain + restart — are in ``test_service.py``,
which borrows :class:`WorkerFleet` for its ``fleet`` arm.
"""

import threading

from repro.analysis.cache import ResultCache, TieredResultCache, scenario_hash
from repro.analysis.runner import SweepEngine
from repro.scenarios.io import scenario_to_dict
from repro.service.client import ServiceClient
from repro.service.worker import RemoteCacheTier, ShardWorker

from tests.service.helpers import CountingTask, fake_result, small_config
from tests.service.test_http import LiveServer, _metrics


def distributed_server(tmp_path, **kwargs):
    kwargs.setdefault("cache_dir", str(tmp_path / "coordinator-cache"))
    kwargs.setdefault("distributed", True)
    kwargs.setdefault("shard_size", 2)
    kwargs.setdefault("lease_ttl_s", 10.0)
    return LiveServer(**kwargs)


class WorkerFleet:
    """N ShardWorkers on threads against one coordinator URL."""

    def __init__(self, base_url, tmp_path, n=2, task_fns=None, **worker_kwargs):
        self.workers = []
        self.threads = []
        worker_kwargs.setdefault("poll_s", 0.05)
        for i in range(n):
            client = ServiceClient(
                base_url, client_id=f"fleet-{i}", timeout=30.0
            )
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
        ghost = client.claim("ghost-worker")
        assert ghost is not None and len(ghost["tasks"]) == 2
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


def _remote_hits(client):
    return float(_metrics(client.metrics_text())["repro_service_cache_remote_hits"])


def test_remote_cache_tier_spares_a_fresh_worker_every_execution(tmp_path):
    """A sweep on a new machine after another worker populated the cache
    executes zero simulations: every get is a remote-tier hit."""
    configs = [small_config(seed=s) for s in (1, 2, 3)]
    with distributed_server(tmp_path) as client:
        with WorkerFleet(
            client.base_url, tmp_path, n=1, task_fn=CountingTask()
        ):
            client.fetch(client.submit(configs), timeout=60)
        # A brand-new "machine": empty local tier, coordinator remote tier.
        counting = CountingTask()
        fresh_cache = TieredResultCache(
            tmp_path / "fresh-local", RemoteCacheTier(client)
        )
        served = _remote_hits(client)
        engine = SweepEngine(processes=1, cache=fresh_cache, task_fn=counting)
        report = engine.run(configs)
        assert counting.calls == []
        assert report.executed == 0
        assert report.cache_hits == len(configs)
        assert report.results == [
            fake_result(scenario_to_dict(c)) for c in configs
        ]
        # The coordinator counts what it serves, where an operator can see it.
        assert _remote_hits(client) - served == len(configs)
        # ...and the remote hits were written through to the local tier.
        local_only = ResultCache(tmp_path / "fresh-local")
        key = scenario_hash(scenario_to_dict(configs[0]))
        assert local_only.get(key) is not None


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
        "repro_service_cache_remote_stores",
    ):
        assert name in text
