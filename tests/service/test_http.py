"""Tests for the HTTP API + typed client against a live in-process server."""

import threading
import time
from pathlib import Path

import pytest

from repro.analysis.cache import make_entry, scenario_hash
from repro.analysis.runner import run_many
from repro.scenarios.io import scenario_to_dict
from repro.service.client import JobFailedError, QueueFullError, ServiceClient, ServiceError
from repro.service.core import SimulationService
from repro.service.http import ServiceHTTPServer

from tests.service.helpers import CountingTask, fake_result, small_config


class LiveServer:
    """A SimulationService + HTTP server on an ephemeral port."""

    def __init__(self, **service_kwargs):
        self.service = SimulationService(**service_kwargs)
        self.httpd = ServiceHTTPServer(("127.0.0.1", 0), self.service)
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)

    def __enter__(self):
        self.service.start()
        self.thread.start()
        return ServiceClient(
            f"http://127.0.0.1:{self.httpd.port}", client_id="pytest", timeout=30.0
        )

    def __exit__(self, *exc_info):
        self.httpd.shutdown()
        self.service.drain(grace_s=5.0)


def _fake_server(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("task_fn", CountingTask())
    return LiveServer(**kwargs)


# -- the acceptance path -----------------------------------------------------


def test_submit_poll_fetch_is_bit_identical_to_run_many(tmp_path):
    configs = [small_config(seed=s) for s in (1, 2)]
    with LiveServer(workers=2, cache_dir=str(tmp_path / "cache")) as client:
        job_id = client.submit(configs)
        status = client.wait(job_id, timeout=120)
        assert status["state"] == "done"
        fetched = client.results(job_id)
    assert fetched == run_many(configs, processes=1)


def test_submit_accepts_payload_dicts():
    payload = scenario_to_dict(small_config(seed=3))
    with _fake_server() as client:
        job_id = client.submit(payload)
        results = client.fetch(job_id, timeout=30)
    assert len(results) == 1
    assert results[0].data_sent == 103


# -- admission over HTTP -----------------------------------------------------


def test_full_queue_maps_to_429_with_retry_after():
    # Workers aren't started, so the first job stays pending and fills the
    # queue; the refusal must not disturb it.
    server = LiveServer(workers=1, task_fn=CountingTask(), max_queue_depth=1)
    server.thread.start()  # HTTP only: service deliberately not started
    client = ServiceClient(f"http://127.0.0.1:{server.httpd.port}", client_id="pytest")
    try:
        accepted = client.submit([small_config(seed=1)])
        with pytest.raises(QueueFullError) as excinfo:
            client.submit([small_config(seed=2)])
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after_s >= 1.0
        assert client.status(accepted)["state"] == "pending"
        server.service.start()  # now let it run: the accepted job completes
        assert client.wait(accepted, timeout=30)["state"] == "done"
    finally:
        server.httpd.shutdown()
        server.service.drain(grace_s=5.0)


def test_draining_service_maps_to_503():
    # Drain the service but keep the HTTP thread alive: submissions must
    # bounce with 503 while health reports the drain.
    server = _fake_server()
    server.service.start()
    server.thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.httpd.port}")
    server.service.drain(grace_s=1.0)
    try:
        with pytest.raises(QueueFullError) as excinfo:
            client.submit([small_config(seed=1)])
        assert excinfo.value.status == 503
        assert client.health()["status"] == "draining"
    finally:
        server.httpd.shutdown()


# -- errors ------------------------------------------------------------------


def test_bad_requests_are_400():
    with _fake_server() as client:
        with pytest.raises(ServiceError) as no_body:
            client._request("POST", "/v1/jobs", {})
        assert no_body.value.status == 400
        with pytest.raises(ServiceError) as bad_scenario:
            client.submit([{"definitely": "not a scenario"}])
        assert bad_scenario.value.status == 400
        with pytest.raises(ServiceError) as bad_priority:
            client._request(
                "POST",
                "/v1/jobs",
                {
                    "scenarios": [scenario_to_dict(small_config())],
                    "priority": "high",
                },
            )
        assert bad_priority.value.status == 400


def test_unknown_job_and_route_are_404():
    with _fake_server() as client:
        with pytest.raises(ServiceError) as no_job:
            client.status("feedfacedeadbeef")
        assert no_job.value.status == 404
        with pytest.raises(ServiceError) as no_route:
            client._request("GET", "/v2/nope")
        assert no_route.value.status == 404


def test_failed_job_fetch_raises_job_failed():
    def broken(payload):
        raise RuntimeError("injected")

    with _fake_server(task_fn=broken, retries=0) as client:
        job_id = client.submit([small_config(seed=1)])
        with pytest.raises(JobFailedError) as excinfo:
            client.fetch(job_id, timeout=30)
        assert "injected" in str(excinfo.value)


def test_cancelled_job_results_say_cancelled_and_which_job():
    server = LiveServer(workers=1, task_fn=CountingTask())
    server.thread.start()  # no workers: job stays pending until cancelled
    client = ServiceClient(f"http://127.0.0.1:{server.httpd.port}")
    try:
        job_id = client.submit([small_config(seed=1)])
        client.cancel(job_id)
        with pytest.raises(JobFailedError) as excinfo:
            client.results(job_id)
        assert (excinfo.value.state, excinfo.value.status) == ("cancelled", 409)
        assert str(excinfo.value) == f"job {job_id} ended cancelled"
        # A 409 that is not a job's end (here: a lease verb on a service
        # whose own threads claim) stays a plain ServiceError.
        with pytest.raises(ServiceError) as not_distributed:
            client.claim("w0")
        assert type(not_distributed.value) is ServiceError
        assert not_distributed.value.status == 409
    finally:
        server.httpd.shutdown()
        server.service.drain(grace_s=1.0)


# -- job management ----------------------------------------------------------


def test_delete_cancels_pending_then_removes_record():
    server = LiveServer(workers=1, task_fn=CountingTask())
    server.thread.start()  # no workers: job stays pending
    client = ServiceClient(f"http://127.0.0.1:{server.httpd.port}")
    try:
        job_id = client.submit([small_config(seed=1)])
        assert client.cancel(job_id)["state"] == "cancelled"
        assert client.cancel(job_id) == {"id": job_id, "deleted": True}
        with pytest.raises(ServiceError) as excinfo:
            client.status(job_id)
        assert excinfo.value.status == 404
    finally:
        server.httpd.shutdown()
        server.service.drain(grace_s=1.0)


def test_list_jobs_and_result_before_done():
    server = LiveServer(workers=1, task_fn=CountingTask())
    server.thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.httpd.port}")
    try:
        job_id = client.submit([small_config(seed=1)])
        jobs = client.list_jobs()
        assert [job["id"] for job in jobs] == [job_id]
        with pytest.raises(ServiceError) as excinfo:  # pending: 202, no results
            client.results(job_id)
        assert "not finished" in str(excinfo.value)
    finally:
        server.httpd.shutdown()
        server.service.drain(grace_s=1.0)


# -- observability endpoints -------------------------------------------------


def test_healthz_and_metrics_exposition():
    with _fake_server() as client:
        job_id = client.submit([small_config(seed=s) for s in (1, 2)])
        client.wait(job_id, timeout=30)
        health = client.health()
        assert health["status"] == "ok"
        assert health["jobs"]["done"] == 1
        assert health["workers"] == 2
        text = client.metrics_text()
    lines = dict(
        line.rsplit(" ", 1) for line in text.strip().splitlines()
    )
    assert lines["repro_service_jobs_submitted"] == "1"
    assert lines["repro_service_jobs_done"] == "1"
    assert lines["repro_service_sims_executed"] == "2"
    assert float(lines["repro_service_job_wall_s_count"]) == 1.0


def _metrics(text):
    return dict(line.rsplit(" ", 1) for line in text.strip().splitlines())


#: What the coordinator counted of the ``/v1/cache`` routes, which are gone.
REMOTE_TIER_NAMES = {
    "repro_service_cache_remote_hits",
    "repro_service_cache_remote_misses",
    "repro_service_cache_remote_stores",
}


def test_metrics_names_are_the_parent_commits():
    """``/metrics`` is the same document whoever refreshes its gauges:
    ``fixtures/parent_commit/metrics_names.txt`` is what commit 4f005c6
    rendered, less the three remote-tier counters.  The names are read
    here from a started two-worker service that has been sent no job."""
    names = (
        Path(__file__).resolve().parent / "fixtures" / "parent_commit" / "metrics_names.txt"
    ).read_text(encoding="utf-8").split()
    assert len(names) == 180 and REMOTE_TIER_NAMES <= set(names)
    with _fake_server() as client:
        rendered = sorted(_metrics(client.metrics_text()))
    assert rendered == [name for name in names if name not in REMOTE_TIER_NAMES]
    assert len(rendered) == 177


def _http_only(**service_kwargs):
    """A LiveServer whose service's own threads never start, and its client."""
    server = LiveServer(**service_kwargs)
    server.thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.httpd.port}", client_id="pytest")
    return server, client


def test_metrics_document_is_the_parent_commits():
    """Values as well as names: ``fixtures/parent_commit/metrics_document.txt``
    is the whole ``/metrics`` text the parent commit rendered for an
    unstarted service holding one pending job, with no tracer — nothing
    timed, so every value is deterministic."""
    expected = (
        Path(__file__).resolve().parent / "fixtures" / "parent_commit" / "metrics_document.txt"
    ).read_text(encoding="utf-8")
    server, client = _http_only(workers=2, task_fn=CountingTask())
    try:
        client.submit([small_config(seed=1)])
        assert client.metrics_text() == expected
    finally:
        server.httpd.shutdown()
        server.service.drain(grace_s=0)


def test_counts_past_a_million_keep_every_digit():
    server, client = _http_only(task_fn=CountingTask())
    try:
        server.service.metrics.count("service.sims.executed", 1_234_567)
        lines = _metrics(client.metrics_text())
        assert lines["repro_service_sims_executed"] == "1234567"
    finally:
        server.httpd.shutdown()
        server.service.drain(grace_s=0)


def test_draining_is_read_at_the_scrape(tmp_path):
    """``drain()`` only sets the service's flag; the scrape reads it."""
    server, client = _http_only(
        distributed=True, cache_dir=str(tmp_path / "cache"), task_fn=fake_result
    )
    try:
        assert _metrics(client.metrics_text())["repro_service_draining"] == "0"
        server.service.drain(grace_s=0)
        assert server.service.draining
        assert _metrics(client.metrics_text())["repro_service_draining"] == "1"
    finally:
        server.httpd.shutdown()
        server.service.drain(grace_s=0)


def test_gauges_are_read_at_the_scrape_not_pushed_before_it(tmp_path):
    """No dispatcher, no janitor, no delivery: nothing runs between the
    state changing and the scrape that must show it."""
    server, client = _http_only(
        distributed=True, cache_dir=str(tmp_path / "cache"), task_fn=fake_result
    )
    try:
        idle = _metrics(client.metrics_text())
        assert idle["repro_service_jobs_pending"] == idle["repro_service_queue_depth"] == "0"
        job = server.service.get_job(client.submit([small_config(seed=1)]))
        queued = _metrics(client.metrics_text())
        assert queued["repro_service_jobs_pending"] == "1"
        assert queued["repro_service_queue_depth"] == "1"
        # Stand in for the dispatcher and a worker that dies: the board
        # alone knows, until somebody asks.
        board = server.service._board
        assert board.add_job(job) is None
        assert board.claim("ghost", time.time()) is not None
        held = _metrics(client.metrics_text())
        assert held["repro_service_fleet_leases_granted"] == "1"
        assert held["repro_service_fleet_leases_active"] == "1"
        assert held["repro_service_fleet_leases_expired"] == "0"
        [expired] = board.expire_leases(time.time() + 3600.0)
        # The snapshot is the read; the HTTP route adds nothing to it.
        assert server.service.metrics.snapshot()["service.fleet.leases_expired"] == 1
        lapsed = _metrics(client.metrics_text())
        assert lapsed["repro_service_fleet_leases_expired"] == "1"
        assert lapsed["repro_service_fleet_shards_requeued"] == "1"
        assert lapsed["repro_service_fleet_shards_pending"] == "1"
        assert lapsed["repro_service_fleet_leases_active"] == "0"
        assert client.leases()["fleet"]["leases_expired"] == 1  # the plain read agrees
    finally:
        server.httpd.shutdown()
        server.service.drain(grace_s=0)


# -- no route takes a cache key from outside ---------------------------------


@pytest.mark.parametrize(
    "bad_key",
    [
        "..x",  # root / ".." / "..x.json": beside the cache root
        "A" * 64,  # a digest, but not as scenario_hash writes one
        "a" * 63,
        "%00",
    ],
)
def test_cache_endpoints_refuse_a_key_that_is_not_a_scenario_hash(tmp_path, bad_key):
    """``/v1/cache/<key>`` is no resource: an older worker's GET and PUT
    read 404 (a miss, a failed push) for a stored key and a bad one alike,
    and neither touches a file in or beside the cache."""
    root = tmp_path / "outer" / "cache"
    payload = scenario_to_dict(small_config(seed=1))
    key = scenario_hash(payload)
    with _fake_server(cache_dir=str(root)) as client:
        client.fetch(client.submit(payload), timeout=30)
        before = sorted(str(path) for path in root.parent.rglob("*"))
        assert str(root / key[:2] / f"{key}.json") in before
        for asked in (key, bad_key):
            entry = make_entry(asked, fake_result(payload))
            for method, body in (("GET", None), ("PUT", entry)):
                with pytest.raises(ServiceError) as refused:
                    client._request(method, f"/v1/cache/{asked}", body, ok_statuses=(200,))
                assert refused.value.status == 404
        assert sorted(str(path) for path in root.parent.rglob("*")) == before
