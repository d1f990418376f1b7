"""The JSON-over-HTTP face of the simulation service.

Stdlib only (:class:`http.server.ThreadingHTTPServer`); one handler
thread per connection, all state owned by the shared
:class:`~repro.service.core.SimulationService`.

Routes::

    POST   /v1/jobs              submit {"scenario": {...}} or {"scenarios": [...]}
                                 + optional "priority", "client"
    GET    /v1/jobs              job summaries, oldest first
    GET    /v1/jobs/{id}         status + progress
    GET    /v1/jobs/{id}/result  202 while unfinished, 200 {"results": [...]}
    GET    /v1/jobs/{id}/trace   the job's merged fleet trace (span list)
    DELETE /v1/jobs/{id}         cancel pending / delete terminal record
    POST   /v1/spans             merge worker-produced spans {"spans": [...]}
    GET    /healthz              liveness + job counts
    GET    /metrics              Prometheus-style text exposition

Trace context crosses processes on the ``X-Repro-Trace`` header
(``trace_id/span_id``): accepted on ``POST /v1/jobs`` (the job joins the
submitter's trace), returned on the 202 acknowledgement, and attached to
claim responses so worker spans parent onto the coordinator's
``shard.lease`` span.

A distributed coordinator's fleet speaks the lease protocol; a result
comes home only inside ``complete``::

    POST   /v1/leases/claim          {"worker": id} -> {"lease": {...}|null}
    POST   /v1/leases/{id}/heartbeat renew; 404 once the lease lapsed
    POST   /v1/leases/{id}/complete  {"results": {key: payload}, "failures",
                                      "stats"} -> acceptance + finished jobs
    GET    /v1/leases                active leases + fleet counts

Status mapping: invalid payloads are 400, unknown jobs 404, cancelling a
running job 409, admission refusals 429 with a ``Retry-After`` hint, a
draining service 503.  Accepted jobs are acknowledged with 202 and a
``Location`` header for polling.  Lease endpoints on a non-distributed
service are 409 (its board is claimed by its own threads).
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.cache import result_from_payload, result_to_payload
from repro.errors import ConfigurationError
from repro.obs.fleet import TRACE_HEADER, format_trace_context, parse_trace_context
from repro.service.core import (
    AdmissionError,
    JobNotCancellableError,
    JobNotFoundError,
    LeaseNotFoundError,
    ServiceDrainingError,
    SimulationService,
)
from repro.service.jobs import Job, JobState
from repro.version import __version__


class ServiceHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`SimulationService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: SimulationService,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service
        self.verbose = verbose

    @property
    def port(self) -> int:
        return int(self.server_address[1])


class ServiceRequestHandler(BaseHTTPRequestHandler):
    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"
    server: ServiceHTTPServer  # narrowed from the base class

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    @property
    def service(self) -> SimulationService:
        return self.server.service

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self, status: int, error: str, headers: Optional[Dict[str, str]] = None
    ) -> None:
        self._send_json(status, {"error": error}, headers)

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body")
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _route(self) -> Tuple[str, List[str]]:
        path = self.path.split("?", 1)[0].rstrip("/")
        return path, [part for part in path.split("/") if part]

    # -- methods -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path, parts = self._route()
        if path == "/healthz":
            return self._get_healthz()
        if path == "/metrics":
            return self._get_metrics()
        if parts[:2] == ["v1", "jobs"]:
            if len(parts) == 2:
                return self._get_jobs()
            if len(parts) == 3:
                return self._with_job(parts[2], self._get_job_status)
            if len(parts) == 4 and parts[3] == "result":
                return self._with_job(parts[2], self._get_job_result)
            if len(parts) == 4 and parts[3] == "trace":
                return self._get_job_trace(parts[2])
        if parts[:2] == ["v1", "leases"] and len(parts) == 2:
            return self._lease_endpoint(self._get_leases)
        self._send_error_json(404, f"no such resource: {self.path}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path, parts = self._route()
        if path == "/v1/jobs":
            return self._post_job()
        if path == "/v1/spans":
            return self._post_spans()
        if parts[:2] == ["v1", "leases"]:
            if len(parts) == 3 and parts[2] == "claim":
                return self._lease_endpoint(self._post_claim)
            if len(parts) == 4 and parts[3] == "heartbeat":
                return self._lease_endpoint(self._post_heartbeat, parts[2])
            if len(parts) == 4 and parts[3] == "complete":
                return self._lease_endpoint(self._post_complete, parts[2])
        self._send_error_json(404, f"no such resource: {self.path}")

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        # No resource takes a PUT; an unknown resource is a JSON 404, not
        # the base class's 501 (older workers still PUT to /v1/cache/<key>).
        self._send_error_json(404, f"no such resource: {self.path}")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        _path, parts = self._route()
        if parts[:2] == ["v1", "jobs"] and len(parts) == 3:
            return self._delete_job(parts[2])
        self._send_error_json(404, f"no such resource: {self.path}")

    # -- handlers ------------------------------------------------------------

    def _with_job(self, job_id: str, handler: Any) -> None:
        try:
            job = self.service.get_job(job_id)
        except JobNotFoundError as exc:
            return self._send_error_json(404, str(exc))
        handler(job)

    def _post_job(self) -> None:
        try:
            body = self._read_body()
        except ValueError as exc:
            return self._send_error_json(400, f"bad request: {exc}")
        if "scenarios" in body:
            scenarios = body["scenarios"]
        elif "scenario" in body:
            scenarios = [body["scenario"]]
        else:
            return self._send_error_json(
                400, "bad request: provide 'scenario' or 'scenarios'"
            )
        if not isinstance(scenarios, list) or not all(
            isinstance(s, dict) for s in scenarios
        ):
            return self._send_error_json(
                400, "bad request: 'scenarios' must be a list of scenario objects"
            )
        client = str(
            body.get("client") or self.headers.get("X-Client") or "default"
        )
        try:
            priority = int(body.get("priority", 0))
        except (TypeError, ValueError):
            return self._send_error_json(400, "bad request: 'priority' must be an int")
        trace_parent = parse_trace_context(self.headers.get(TRACE_HEADER))
        try:
            job = self.service.submit(
                scenarios,
                client=client,
                priority=priority,
                trace_parent=trace_parent,
            )
        except ConfigurationError as exc:
            return self._send_error_json(400, f"invalid scenario: {exc}")
        except AdmissionError as exc:
            return self._send_error_json(
                429, str(exc), {"Retry-After": f"{max(1, round(exc.retry_after_s))}"}
            )
        except ServiceDrainingError as exc:
            return self._send_error_json(503, str(exc), {"Retry-After": "5"})
        self._send_json(
            202,
            {
                "id": job.id,
                "state": job.state.value,
                "scenarios": len(job.scenarios),
                "trace_id": job.trace_id,
            },
            {"Location": f"/v1/jobs/{job.id}"},
        )

    def _get_jobs(self) -> None:
        self._send_json(
            200,
            {"jobs": [job.status_dict() for job in self.service.jobs()]},
        )

    def _get_job_status(self, job: Job) -> None:
        self._send_json(200, job.status_dict())

    def _get_job_result(self, job: Job) -> None:
        if job.state is JobState.DONE and job.results is not None:
            return self._send_json(
                200,
                {
                    "id": job.id,
                    "state": job.state.value,
                    "results": [result_to_payload(r) for r in job.results],
                },
            )
        if job.state in (JobState.FAILED, JobState.CANCELLED):
            return self._send_json(
                409,
                {"id": job.id, "state": job.state.value, "error": job.error},
            )
        self._send_json(
            202,
            {
                "id": job.id,
                "state": job.state.value,
                "progress": job.progress.as_dict(),
            },
            {"Retry-After": "1"},
        )

    def _get_job_trace(self, job_id: str) -> None:
        try:
            trace = self.service.job_trace(job_id)
        except JobNotFoundError as exc:
            return self._send_error_json(404, str(exc))
        self._send_json(200, trace)

    def _post_spans(self) -> None:
        try:
            body = self._read_body()
        except ValueError as exc:
            return self._send_error_json(400, f"bad request: {exc}")
        spans = body.get("spans")
        if not isinstance(spans, list):
            return self._send_error_json(400, "bad request: 'spans' must be a list")
        accepted = self.service.ingest_spans(
            [blob for blob in spans if isinstance(blob, dict)]
        )
        self._send_json(200, {"accepted": accepted})

    def _delete_job(self, job_id: str) -> None:
        try:
            job = self.service.cancel(job_id)
        except JobNotFoundError as exc:
            return self._send_error_json(404, str(exc))
        except JobNotCancellableError as exc:
            return self._send_error_json(409, str(exc))
        try:
            self.service.get_job(job_id)  # cancelled records stay queryable
            self._send_json(200, {"id": job_id, "state": job.state.value})
        except JobNotFoundError:  # terminal record deleted
            self._send_json(200, {"id": job_id, "deleted": True})

    # -- the lease protocol (distributed mode) --------------------------------

    def _lease_endpoint(self, handler: Any, *args: str) -> None:
        """Run a ``/v1/leases*`` handler — 409 unless a remote fleet is
        what claims from this service's board."""
        if not self.service.distributed:
            return self._send_error_json(
                409, "this service is not running in distributed mode"
            )
        handler(*args)

    def _post_claim(self) -> None:
        try:
            body = self._read_body()
        except ValueError as exc:
            return self._send_error_json(400, f"bad request: {exc}")
        worker = str(body.get("worker") or "")
        if not worker:
            return self._send_error_json(400, "bad request: 'worker' is required")
        claim = self.service.claim_shard(worker)
        # An idle queue is a 200 with a null lease: the worker backs off
        # and polls again, no error handling needed on its side.
        headers: Dict[str, str] = {}
        trace = (claim or {}).get("trace") or {}
        if trace.get("trace_id") and trace.get("parent_id"):
            headers[TRACE_HEADER] = format_trace_context(
                trace["trace_id"], trace["parent_id"]
            )
        self._send_json(200, {"lease": claim}, headers)

    def _post_heartbeat(self, lease_id: str) -> None:
        try:
            doc = self.service.lease_heartbeat(lease_id)
        except LeaseNotFoundError as exc:
            return self._send_error_json(404, str(exc))
        self._send_json(200, doc)

    def _post_complete(self, lease_id: str) -> None:
        try:
            body = self._read_body()
        except ValueError as exc:
            return self._send_error_json(400, f"bad request: {exc}")
        results_blob = body.get("results") or {}
        failures_blob = body.get("failures") or {}
        stats = body.get("stats") or {}
        if not isinstance(results_blob, dict) or not isinstance(failures_blob, dict):
            return self._send_error_json(
                400, "bad request: 'results' and 'failures' must be objects"
            )
        try:
            results = {
                str(key): result_from_payload(payload)
                for key, payload in results_blob.items()
            }
        except Exception as exc:
            return self._send_error_json(
                400, f"bad request: unloadable result payload: {exc}"
            )
        failures = {str(key): str(error) for key, error in failures_blob.items()}
        spans = body.get("spans")
        if spans is not None and not isinstance(spans, list):
            return self._send_error_json(400, "bad request: 'spans' must be a list")
        try:
            outcome = self.service.complete_shard(
                lease_id,
                results,
                failures,
                stats if isinstance(stats, dict) else None,
                spans=spans,
            )
        except LeaseNotFoundError as exc:
            return self._send_error_json(404, str(exc))
        self._send_json(200, outcome)

    def _get_leases(self) -> None:
        self._send_json(
            200,
            {"leases": self.service.leases(), "fleet": self.service.fleet_status()},
        )

    def _get_healthz(self) -> None:
        service = self.service
        self._send_json(
            200,
            {
                "status": "draining" if service.draining else "ok",
                "version": __version__,
                "jobs": service.counts(),
                "workers": service.workers,
                "distributed": service.distributed,
            },
        )

    def _get_metrics(self) -> None:
        body = self.service.metrics.render_prometheus().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
