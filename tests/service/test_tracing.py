"""End-to-end fleet tracing through the service: spans for every stage,
context propagation over HTTP, worker-span merge, and the trace API."""

import threading
from collections import Counter

import pytest

import repro.obs.fleet as fleet_module
from repro.obs.fleet import (
    FleetTracer,
    trace_breakdown,
    trace_coverage,
    validate_spans,
)
from repro.scenarios.io import scenario_to_dict
from repro.service.client import ServiceClient, ServiceError
from repro.service.core import SimulationService
from repro.service.http import ServiceHTTPServer
from repro.service.journal import replay_spans
from repro.service.worker import ShardWorker

from tests.service.helpers import BlockingTask, fake_result, small_config


def payloads(*seeds):
    return [scenario_to_dict(small_config(seed=s)) for s in seeds]


@pytest.fixture
def service(tmp_path):
    svc = SimulationService(
        workers=1,
        cache_dir=str(tmp_path / "cache"),
        journal_path=str(tmp_path / "journal.jsonl"),
        task_fn=fake_result,
        tracer=FleetTracer(proc="coordinator"),
    )
    svc.start()
    try:
        yield svc
    finally:
        svc.drain(grace_s=5.0)


@pytest.fixture
def http_service(tmp_path):
    svc = SimulationService(
        workers=1,
        cache_dir=str(tmp_path / "cache"),
        task_fn=fake_result,
        tracer=FleetTracer(proc="coordinator"),
    )
    httpd = ServiceHTTPServer(("127.0.0.1", 0), svc)
    svc.start()
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield svc, ServiceClient(
            f"http://127.0.0.1:{httpd.port}", client_id="pytest"
        )
    finally:
        httpd.shutdown()
        svc.drain(grace_s=5.0)


def test_local_job_records_every_coordinator_stage(service):
    job = service.submit(payloads(1, 2))
    assert service.wait(job.id, timeout=30.0)
    trace = service.job_trace(job.id)
    assert trace["trace_id"] == job.trace_id
    kinds = {span["kind"] for span in trace["spans"]}
    assert {"job", "submit", "queue.wait", "dispatch", "cache.lookup",
            "journal.fsync"} <= kinds
    assert all(span["trace_id"] == job.trace_id for span in trace["spans"])
    assert validate_spans(trace["spans"]) == []
    coverage = trace_coverage(trace["spans"])
    assert coverage["coverage"] > 0.5
    roots = [s for s in trace["spans"] if s["kind"] == "job"]
    assert len(roots) == 1 and "parent_id" not in roots[0]
    assert roots[0]["attrs"]["state"] == "done"


def test_per_job_traces_are_disjoint(service):
    first = service.submit(payloads(1))
    second = service.submit(payloads(2))
    assert service.wait(first.id, timeout=30.0)
    assert service.wait(second.id, timeout=30.0)
    assert first.trace_id != second.trace_id
    ids_first = {s["span_id"] for s in service.job_trace(first.id)["spans"]}
    ids_second = {s["span_id"] for s in service.job_trace(second.id)["spans"]}
    assert not (ids_first & ids_second)


def test_untraced_service_serves_empty_traces(tmp_path):
    svc = SimulationService(
        workers=1, cache_dir=str(tmp_path / "c"), task_fn=fake_result
    )
    svc.start()
    try:
        job = svc.submit(payloads(1))
        assert svc.wait(job.id, timeout=30.0)
        trace = svc.job_trace(job.id)
        assert trace == {"id": job.id, "trace_id": None, "spans": []}
    finally:
        svc.drain(grace_s=5.0)


def test_disabled_tracer_records_no_spans(tmp_path):
    svc = SimulationService(
        workers=1,
        cache_dir=str(tmp_path / "c"),
        task_fn=fake_result,
        tracer=FleetTracer(proc="coordinator", enabled=False),
    )
    svc.start()
    try:
        job = svc.submit(payloads(1))
        assert svc.wait(job.id, timeout=30.0)
        assert job.trace_id is None
        assert svc.job_trace(job.id)["spans"] == []
    finally:
        svc.drain(grace_s=5.0)


class _CountingLock:
    def __init__(self, lock):
        self.lock, self.acquisitions = lock, 0

    def __enter__(self):
        self.acquisitions += 1
        return self.lock.__enter__()

    def __exit__(self, *exc_info):
        return self.lock.__exit__(*exc_info)


def test_disabled_tracer_is_never_entered_locked_or_given_a_span(tmp_path, monkeypatch):
    """What the "< 2 % with tracing off" budget means, without a stopwatch:
    a job served through a constructed-but-disabled tracer makes no call
    into it, takes no ``FleetTracer._lock`` and builds no ``Span`` for any
    of its shards, and delivers what the tracer-less service delivers."""
    spans_built = []
    real_init = fleet_module.Span.__init__

    def counting_init(self, *args, **kwargs):
        spans_built.append(kwargs.get("kind"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(fleet_module.Span, "__init__", counting_init)

    def serve(tracer):
        svc = SimulationService(
            workers=2, shard_size=1, task_fn=fake_result, tracer=tracer
        )
        locks = []
        for owner in [tracer, *(worker.tracer for worker in svc._local_workers)]:
            if owner is not None:
                owner._lock = _CountingLock(owner._lock)
                locks.append(owner._lock)
        with svc:
            job = svc.submit(payloads(*range(1, 13)))
            assert svc.wait(job.id, timeout=30.0)
            return svc.job_results(job.id), sum(lock.acquisitions for lock in locks)

    entered = []
    disabled = FleetTracer(proc="coordinator", enabled=False)
    for name in ("start", "finish", "add_spans"):
        monkeypatch.setattr(
            disabled, name, lambda *a, _name=name, **k: entered.append(_name)
        )
    traced_off, lock_acquisitions = serve(disabled)
    assert (entered, lock_acquisitions, spans_built) == ([], 0, [])
    untraced, _ = serve(None)
    assert traced_off == untraced
    # The counters do count: the same job with tracing on trips all of them.
    _, lock_acquisitions = serve(FleetTracer(proc="coordinator"))
    assert lock_acquisitions >= 12 and spans_built.count("shard.lease") == 12


class _PerThreadCountingLock(_CountingLock):
    def __init__(self, lock):
        super().__init__(lock)
        self.by_thread = Counter()

    def __enter__(self):
        self.by_thread[threading.get_ident()] += 1
        return super().__enter__()


def test_tracing_a_claim_and_a_delivery_adds_no_root_lock_entry(tmp_path):
    """The other half of the budget, as clock-free: with tracing *on*, the
    lease verbs enter ``service.jobs`` exactly as often as with it off —
    a shard's spans live on the board's own objects, and filing them is
    nobody's reason to take the root lock.  Counted on the calling thread
    (the dispatcher and janitor poll the same lock on theirs)."""

    def entries(tracer, where):
        svc = SimulationService(
            cache_dir=str(tmp_path / where / "cache"),
            journal_path=str(tmp_path / where / "journal.jsonl"),
            distributed=True,
            shard_size=2,
            tracer=tracer,
        )
        svc._lock = lock = _PerThreadCountingLock(svc._lock)
        me, counted = threading.get_ident(), []
        with svc:
            job = svc.submit(payloads(1, 2, 3, 4))
            # Two shards: the first delivery settles no job, the second does.
            while svc.fleet_status()["shards_pending"] < 2:
                job.wait_for_change(job.version, timeout=0.05)
            for _ in range(2):
                before = lock.by_thread[me]
                claim = svc.claim_shard("w1")
                worker_span = dict(
                    claim.get("trace", {}), span_id=claim["id"], kind="shard.execute",
                    proc="w1", start=1.0, end=2.0,
                )
                svc.complete_shard(
                    claim["id"],
                    {t["key"]: fake_result(t["scenario"]) for t in claim["tasks"]},
                    stats={"executed": 2},
                    spans=[worker_span] if tracer is not None else None,
                )
                counted.append(lock.by_thread[me] - before)
            assert svc.wait(job.id, timeout=10.0).state.value == "done"
        return counted, svc.job_trace(job.id)["spans"]

    untraced, no_spans = entries(None, "off")
    traced, spans = entries(FleetTracer(proc="coordinator"), "on")
    assert traced == untraced == [1, 2]  # _claims_open; then + _finish_done
    assert no_spans == []
    # ...and the traced run did record, merge and journal all of it.
    kinds = Counter(span["kind"] for span in spans)
    assert (kinds["shard.lease"], kinds["result.deliver"], kinds["shard.execute"]) == (2, 2, 2)
    journaled = replay_spans(tmp_path / "on" / "journal.jsonl")
    [journaled_spans] = journaled.values()
    assert {s["span_id"] for s in journaled_spans} == {s["span_id"] for s in spans}


def _assert_shard_spans_are_whole(spans, shards, expired=0):
    """One ``queue.wait`` per shard (re)queue; every ``shard.lease`` ends
    in exactly one ``result.deliver`` or as ``outcome="expired"``."""
    assert validate_spans(spans) == []
    waits = [s for s in spans if s["kind"] == "queue.wait" and "shard" in s.get("attrs", {})]
    first = Counter(s["attrs"]["shard"] for s in waits if not s["attrs"]["requeue"])
    assert len(first) == shards and set(first.values()) == {1}
    assert len(waits) - shards == expired
    delivered = Counter(s["parent_id"] for s in spans if s["kind"] == "result.deliver")
    leases = [s for s in spans if s["kind"] == "shard.lease"]
    assert len(leases) == shards + expired
    for lease in leases:
        if lease["attrs"]["outcome"] == "expired":
            assert delivered[lease["span_id"]] == 0
        else:
            assert delivered[lease["span_id"]] == 1
    assert sum(s["attrs"]["outcome"] == "expired" for s in leases) == expired


def _assert_no_span_handle_is_left(svc, jobs, leases):
    board = svc._board
    assert [(job.span, job.stage_span) for job in jobs] == [(None, None)] * len(jobs)
    assert [shard.queue_span for shard in board._shards.values()] == [None] * len(board._shards)
    assert [lease.span for lease in leases] == [None] * len(leases)
    assert leases and not board._leases


def _recording_claims(svc):
    """Every :class:`Lease` the board grants, kept (the board forgets a
    lease once it is delivered or expired)."""
    leases, claim = [], svc._board.claim

    def recording_claim(worker, now):
        lease = claim(worker, now)
        if lease is not None:
            leases.append(lease)
        return lease

    svc._board.claim = recording_claim
    return leases


def test_twenty_traced_jobs_keep_every_shard_span():
    """A worker's claim can answer a shard before anything else hears that
    it was queued; the span must not depend on who hears first.  (With the
    queued event delivered by a callback after the board lock was released,
    roughly four in ten of these jobs lost a ``queue.wait`` span and left
    its handle open for ever; twenty make that bite.)"""
    svc = SimulationService(
        workers=2, shard_size=2, task_fn=fake_result, tracer=FleetTracer(proc="coordinator")
    )
    leases = _recording_claims(svc)
    jobs = []
    with svc:
        for first_seed in range(1, 241, 12):  # fresh grid points every time
            jobs.append(svc.submit(payloads(*range(first_seed, first_seed + 12))))
            assert svc.wait(jobs[-1].id, timeout=30.0).state.value == "done"
    for job in jobs:
        _assert_shard_spans_are_whole(svc.job_trace(job.id)["spans"], shards=6)
    assert len(leases) == 120
    _assert_no_span_handle_is_left(svc, jobs, leases)


def test_a_ghost_claim_left_to_expire_closes_its_spans_too():
    task = BlockingTask()
    svc = SimulationService(
        workers=1,
        shard_size=2,
        lease_ttl_s=0.4,
        task_fn=task,
        tracer=FleetTracer(proc="coordinator"),
    )
    leases = _recording_claims(svc)
    with svc:
        job = svc.submit(payloads(*range(1, 13)))
        assert task.started.wait(timeout=10.0)  # the one worker is busy:
        ghost = svc.claim_shard("ghost")  # the next shard goes to a ghost
        assert ghost is not None and ghost["trace"]["trace_id"] == job.trace_id
        task.release.set()
        assert svc.wait(job.id, timeout=30.0).state.value == "done"
    spans = svc.job_trace(job.id)["spans"]
    _assert_shard_spans_are_whole(spans, shards=6, expired=1)
    [lapsed] = [
        s for s in spans
        if s["kind"] == "shard.lease" and s["attrs"]["outcome"] == "expired"
    ]
    assert (lapsed["attrs"]["worker"], lapsed["attrs"]["lease"]) == ("ghost", ghost["id"])
    assert lapsed["span_id"] == ghost["trace"]["parent_id"]
    _assert_no_span_handle_is_left(svc, [job], leases)


def test_trace_endpoint_over_http(http_service):
    _svc, client = http_service
    job_id = client.submit(payloads(1))
    client.wait(job_id, timeout=30.0)
    trace = client.job_trace(job_id)
    assert trace["id"] == job_id
    assert trace["trace_id"]
    assert {span["kind"] for span in trace["spans"]} >= {"job", "submit"}
    with pytest.raises(ServiceError) as err:
        client.job_trace("no-such-job")
    assert err.value.status == 404


def test_submit_adopts_the_callers_trace_context(http_service):
    _svc, client = http_service
    job_id = client.submit(payloads(1), trace_parent=("t-caller", "span-caller"))
    client.wait(job_id, timeout=30.0)
    trace = client.job_trace(job_id)
    assert trace["trace_id"] == "t-caller"
    [root] = [s for s in trace["spans"] if s["kind"] == "job"]
    assert root["parent_id"] == "span-caller"


def test_submit_ack_carries_the_trace_id(http_service):
    svc, client = http_service
    job_id = client.submit(payloads(1))
    status = client.status(job_id)
    assert status["trace_id"] == svc.get_job(job_id).trace_id


def test_post_spans_merges_into_the_job_trace(http_service):
    svc, client = http_service
    job_id = client.submit(payloads(1))
    client.wait(job_id, timeout=30.0)
    trace_id = svc.get_job(job_id).trace_id
    foreign = {
        "trace_id": trace_id,
        "span_id": "w-span-1",
        "kind": "task.run",
        "proc": "w-external",
        "start": 1.0,
        "end": 2.0,
    }
    assert client.post_spans([foreign, {"junk": True}]) == 1
    spans = client.job_trace(job_id)["spans"]
    assert any(span["span_id"] == "w-span-1" for span in spans)


def test_distributed_trace_merges_worker_spans(tmp_path):
    svc = SimulationService(
        cache_dir=str(tmp_path / "cache"),
        journal_path=str(tmp_path / "journal.jsonl"),
        task_fn=fake_result,
        distributed=True,
        shard_size=2,
        tracer=FleetTracer(proc="coordinator"),
    )
    httpd = ServiceHTTPServer(("127.0.0.1", 0), svc)
    svc.start()
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{httpd.port}"
    try:
        client = ServiceClient(url, client_id="pytest")
        job_id = client.submit(payloads(1, 2, 3, 4))
        worker = ShardWorker(
            ServiceClient(url, client_id="w1"),
            worker_id="w1",
            cache_dir=str(tmp_path / "worker-cache"),
            task_fn=fake_result,
        )
        assert worker.run(max_shards=2) == 2
        client.wait(job_id, timeout=30.0)
        spans = client.job_trace(job_id)["spans"]
        assert validate_spans(spans) == []
        coverage = trace_coverage(spans)
        assert set(coverage["procs"]) == {"coordinator", "w1"}
        assert coverage["coverage"] > 0.8
        kinds = {span["kind"] for span in spans}
        assert {"job", "shard.lease", "shard.execute", "task.run",
                "cache.lookup", "result.deliver"} <= kinds
        assert "cache.remote" not in kinds  # results come home in complete only
        # worker execute spans hang off the coordinator's lease spans
        lease_ids = {s["span_id"] for s in spans if s["kind"] == "shard.lease"}
        executes = [s for s in spans if s["kind"] == "shard.execute"]
        assert executes and all(s["parent_id"] in lease_ids for s in executes)
        breakdown = trace_breakdown(spans)
        assert breakdown["by_proc"]["w1"]["busy_s"] > 0
    finally:
        httpd.shutdown()
        svc.drain(grace_s=5.0)


def test_worker_without_trace_context_ships_no_spans(tmp_path):
    svc = SimulationService(
        cache_dir=str(tmp_path / "cache"),
        task_fn=fake_result,
        distributed=True,
        shard_size=4,
        tracer=None,  # untraced coordinator: claims carry no context
    )
    httpd = ServiceHTTPServer(("127.0.0.1", 0), svc)
    svc.start()
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{httpd.port}"
    try:
        client = ServiceClient(url, client_id="pytest")
        job_id = client.submit(payloads(1, 2))
        worker = ShardWorker(
            ServiceClient(url, client_id="w1"),
            worker_id="w1",
            cache_dir=str(tmp_path / "worker-cache"),
            task_fn=fake_result,
        )
        assert worker.run(max_shards=1) == 1
        client.wait(job_id, timeout=30.0)
        assert worker.tracer.trace_count() == 0
        assert client.job_trace(job_id)["spans"] == []
    finally:
        httpd.shutdown()
        svc.drain(grace_s=5.0)


def test_stage_histograms_observe_finished_spans(service):
    job = service.submit(payloads(1))
    assert service.wait(job.id, timeout=30.0)
    snapshot = service.metrics.snapshot()
    dispatch = [
        key for key in snapshot
        if key.startswith("service.stage.dispatch.wall_s") and key.endswith("count")
    ]
    assert dispatch and snapshot[dispatch[0]] >= 1
    text = service.metrics.render_prometheus()
    assert "repro_service_stage_dispatch_wall_s" in text
