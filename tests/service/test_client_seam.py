"""The seam every HTTP call goes through: one fault is one error, the remote
cache tier is a soft view of the client, and a document is what the server
sent — nothing travels in-band.
"""

import socket

import pytest

from repro.analysis.cache import ResultCache, TieredResultCache, make_entry, scenario_hash
from repro.obs.fleet import FleetTracer
from repro.scenarios.io import scenario_to_dict
from repro.service.client import ServiceClient, ServiceError, TransientServiceError
from repro.service.worker import RemoteCacheTier, ShardWorker

from tests.service.helpers import fake_result, small_config
from tests.service.test_client_retry import FlakyServer, fast_client
from tests.service.test_http import LiveServer

# -- one fault, one error -----------------------------------------------------

READS = {
    "status": lambda client: client.status("j-1"),
    "health": lambda client: client.health(),
    "list_jobs": lambda client: client.list_jobs(),
    "metrics_text": lambda client: client.metrics_text(),
    "job_trace": lambda client: client.job_trace("j-1"),
    "leases": lambda client: client.leases(),
}


@pytest.mark.parametrize("name", sorted(READS))
def test_a_dropped_connection_is_transient_and_retried_for_every_read(name):
    with FlakyServer(fail_first=1, payload={"jobs": []}) as server:
        with pytest.raises(TransientServiceError):
            READS[name](fast_client(server.url, retries=0))
        assert server.connections == 1
    with FlakyServer(fail_first=2, payload={"jobs": []}) as server:
        READS[name](fast_client(server.url, retries=2))
        assert server.connections == 3  # two drops + the success


# -- the remote cache tier ----------------------------------------------------


def _entry(seed=1):
    payload = scenario_to_dict(small_config(seed=seed))
    key = scenario_hash(payload)
    return key, make_entry(key, fake_result(payload))


def test_tier_over_a_dead_coordinator_is_a_miss_after_one_attempt(tmp_path):
    key, entry = _entry()
    with FlakyServer(fail_first=10**6) as server:  # resets every connection
        tier = RemoteCacheTier(fast_client(server.url, retries=2))
        assert tier.get_entry(key) is None
        assert server.connections == 1  # whatever ``retries`` says
        assert tier.put_entry(key, entry) is False
        assert server.connections == 2
    closed = socket.socket()
    closed.bind(("127.0.0.1", 0))
    port = closed.getsockname()[1]
    closed.close()  # nobody listens: refused
    tier = RemoteCacheTier(fast_client(f"http://127.0.0.1:{port}"))
    cache = TieredResultCache(tmp_path, tier)
    assert cache.get(key) is None
    cache.put(key, fake_result(scenario_to_dict(small_config(seed=1))))
    assert cache.get(key) is not None  # local-only, not broken


@pytest.mark.parametrize("flaw", ["cross-keyed", "wrong-version", "not-an-entry"])
def test_tier_refuses_a_document_the_local_store_would_not_write(tmp_path, flaw):
    key, entry = _entry(seed=1)
    served = {
        "cross-keyed": _entry(seed=2)[1],
        "wrong-version": dict(entry, format_version=entry["format_version"] + 1),
        "not-an-entry": {"error": "teapot"},
    }[flaw]
    with FlakyServer(payload=served) as server:
        tier = RemoteCacheTier(fast_client(server.url))
        assert tier.get_entry(key) is None
        assert TieredResultCache(tmp_path, tier).get(key) is None
        assert server.connections == 2
    assert key not in ResultCache(tmp_path)  # never written through


def test_worker_tier_records_cache_remote_spans_with_the_same_attributes(tmp_path):
    with LiveServer(
        distributed=True,
        cache_dir=str(tmp_path / "cache"),
        tracer=FleetTracer(proc="coordinator"),
    ) as client:
        job_id = client.submit([small_config(seed=1)])
        worker = ShardWorker(
            ServiceClient(client.base_url, client_id="w1"),
            worker_id="w1",
            cache_dir=str(tmp_path / "worker-cache"),
            task_fn=fake_result,
        )
        assert worker.run(max_shards=1) == 1
        client.wait(job_id, timeout=30)
        remote = [
            span["attrs"]
            for span in client.job_trace(job_id)["spans"]
            if span["kind"] == "cache.remote"
        ]
    key = scenario_hash(scenario_to_dict(small_config(seed=1)))
    assert remote == [
        {"op": "get", "key": key, "hit": False},
        {"op": "put", "key": key, "stored": True},
    ]


def test_a_job_is_followed_by_polling_its_status_and_no_other_way():
    with LiveServer(task_fn=fake_result) as client:
        job_id = client.submit([small_config(seed=1)])
        assert client.wait(job_id, timeout=30)["state"] == "done"
        with pytest.raises(ServiceError) as gone:
            client._request("GET", f"/v1/jobs/{job_id}/events")
        assert gone.value.status == 404
        assert "no such resource" in str(gone.value)


# -- nothing in-band ----------------------------------------------------------


def _underscored(doc, where):
    if isinstance(doc, dict):
        for name, value in doc.items():
            if str(name).startswith("_"):
                yield f"{where}.{name}"
            yield from _underscored(value, f"{where}.{name}")
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _underscored(value, f"{where}[{index}]")


def test_public_methods_return_the_document_the_server_sent(tmp_path):
    docs = {}
    with LiveServer(
        distributed=True, cache_dir=str(tmp_path / "cache"), shard_size=1
    ) as client:
        job_id = client.submit([small_config(seed=s) for s in (1, 2)])
        docs["status"] = client.status(job_id)
        docs["list_jobs"] = client.list_jobs()
        docs["health"] = client.health()
        claim = docs["claim"] = client.claim("w1")
        docs["leases"] = client.leases()
        docs["lease_heartbeat"] = client.lease_heartbeat(claim["id"])
        [task] = claim["tasks"]
        result = fake_result(task["scenario"])
        docs["complete"] = client.complete(claim["id"], {task["key"]: result})
        docs["cache_get"] = client.cache_get(task["key"])
        docs["job_trace"] = client.job_trace(job_id)
        other = client.submit([small_config(seed=3)])
        docs["cancel"] = client.cancel(other)
        docs["cancel-again"] = client.cancel(other)
        second = client.claim("w1")
        [task] = second["tasks"]
        client.complete(second["id"], {task["key"]: fake_result(task["scenario"])})
        docs["wait"] = client.wait(job_id, timeout=30)
    assert docs["cancel-again"] == {"id": other, "deleted": True}
    assert docs["wait"]["state"] == "done"
    leaks = [path for name, doc in docs.items() for path in _underscored(doc, name)]
    assert leaks == []
