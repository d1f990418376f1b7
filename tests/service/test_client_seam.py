"""The seam every HTTP call goes through: one fault is one error, and a
document is what the server sent — nothing travels in-band.
"""

import pytest

from repro.service.client import ServiceError, TransientServiceError

from tests.service.helpers import claim_when_dispatched, fake_result, small_config
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
        claim = docs["claim"] = claim_when_dispatched(client, "w1")
        docs["leases"] = client.leases()
        docs["lease_heartbeat"] = client.lease_heartbeat(claim["id"])
        [task] = claim["tasks"]
        result = fake_result(task["scenario"])
        docs["complete"] = client.complete(claim["id"], {task["key"]: result})
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
