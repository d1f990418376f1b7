"""Typed Python client for the simulation service HTTP API.

Stdlib only (``urllib``).  Accepts :class:`ScenarioConfig` objects or
payload dicts; returns real :class:`SimulationResult` records, rebuilt
through the same codec the result cache uses — so a fetched result is
``==`` to one computed locally from the same scenario.

::

    client = ServiceClient("http://127.0.0.1:8642")
    job_id = client.submit([config.but(seed=s) for s in (1, 2, 3)])
    status = client.wait(job_id, timeout=600)
    results = client.results(job_id)

Transient connection failures (refused, reset, timed out — a coordinator
mid-restart) are retried with bounded exponential backoff for idempotent
requests.  GET/DELETE retry by default; the lease verbs opt in
explicitly because the server makes them safe to repeat (claims hand out
fresh leases, heartbeats re-extend, completes are first-delivery-wins).
A non-idempotent POST (job submission) is never retried — the caller
decides whether a duplicate job is acceptable.

Backoff is *decorrelated-jitter* exponential (each sleep drawn uniformly
from ``[base, 3 × previous]``, capped): when a rebooted coordinator comes
back, a fleet of workers that all failed at the same instant spreads its
retries instead of thundering-herding the first healthy second.  The
jitter generator is seedable (``jitter_seed``) for deterministic tests.
"""
from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from email.message import Message
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.cache import result_from_payload, result_to_payload
from repro.devtools.lockdep import blocking
from repro.errors import ReproError
from repro.obs.fleet import TRACE_HEADER, format_trace_context
from repro.metrics.collector import SimulationResult
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.io import scenario_to_dict

ScenarioLike = Union[ScenarioConfig, Dict[str, Any]]


class ServiceError(ReproError):
    """An HTTP-level failure talking to the service."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


class TransientServiceError(ServiceError):
    """A connection-level failure (refused/reset/timeout): retryable."""


class QueueFullError(ServiceError):
    """The service refused admission (HTTP 429/503); retry later."""

    def __init__(self, message: str, status: int, retry_after_s: float) -> None:
        super().__init__(message, status)
        self.retry_after_s = retry_after_s


class JobFailedError(ServiceError):
    """The job reached a terminal state with no results."""

    def __init__(self, message: str, state: str) -> None:
        super().__init__(message, 409)
        self.state = state


def _decode(blob: bytes) -> Dict[str, Any]:
    """A response body as a document; ``{}`` when it is not JSON."""
    try:
        payload = json.loads(blob) if blob else {}
    except ValueError:
        payload = {}
    return payload if isinstance(payload, dict) else {"body": payload}


class ServiceClient:
    """A thin, typed wrapper over the service's JSON API — and the only
    code in the package that opens a URL (:meth:`_open`)."""

    def __init__(
        self,
        base_url: str,
        client_id: str = "default",
        timeout: float = 30.0,
        retries: int = 2,
        backoff_s: float = 0.1,
        backoff_max_s: float = 2.0,
        jitter_seed: Optional[int] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.client_id = client_id
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        # Decorrelated-jitter state; unseeded by default so independent
        # workers genuinely decorrelate (this RNG never touches
        # simulation state — seed it only to pin a test).
        self._jitter_rng = np.random.Generator(np.random.PCG64(jitter_seed))

    def _next_backoff(self, previous: float) -> float:
        """One decorrelated-jitter delay: uniform over ``[base, 3·prev]``
        (AWS-style), capped at ``backoff_max_s``."""
        low = self.backoff_s
        high = max(low, 3.0 * previous)
        return float(min(self.backoff_max_s, self._jitter_rng.uniform(low, high)))

    # -- HTTP plumbing -------------------------------------------------------

    def _open(
        self,
        method: str,
        path: str,
        data: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
        attempts: int = 1,
    ) -> Tuple[int, Message, bytes]:
        """The one place a URL is opened: ``(status, headers, body)`` of
        whatever the server answered — an error status is an answer too.

        Connection refused/reset/timed out, or the server vanished
        mid-response (``RemoteDisconnected``), is tried ``attempts`` times
        with backoff between, then raised as :class:`TransientServiceError`.
        """
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            headers={"X-Client": self.client_id, **(headers or {})},
            method=method,
        )
        delay = self.backoff_s
        with blocking(f"http {method} {path}"):
            while True:
                try:
                    try:
                        response = urllib.request.urlopen(request, timeout=self.timeout)
                    except urllib.error.HTTPError as exc:
                        response = exc
                    with response:
                        return response.status, response.headers, response.read()
                except (
                    urllib.error.URLError,
                    ConnectionError,
                    TimeoutError,
                    http.client.HTTPException,
                ) as exc:
                    attempts -= 1
                    if attempts <= 0:
                        reason = getattr(exc, "reason", exc)
                        raise TransientServiceError(
                            f"cannot reach {self.base_url}: {reason}"
                        ) from None
                delay = self._next_backoff(delay)
                time.sleep(delay)

    @staticmethod
    def _check(
        status: int, headers: Message, blob: bytes, ok_statuses: Sequence[int]
    ) -> None:
        """The one place an HTTP status becomes an exception."""
        if status in ok_statuses:
            return
        payload = _decode(blob)
        message = payload.get("error") or f"HTTP {status}"
        if status in (429, 503):
            raise QueueFullError(
                message, status, float(headers.get("Retry-After") or 1.0)
            )
        if status == 409 and payload.get("state"):
            # A job that ended without results: which job, which state, why.
            state = str(payload["state"])
            reason = f": {payload['error']}" if payload.get("error") else ""
            raise JobFailedError(
                f"job {payload.get('id')} ended {state}{reason}", state=state
            )
        raise ServiceError(message, status)

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        ok_statuses: Sequence[int] = (200, 202),
        idempotent: Optional[bool] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """One JSON API call: the status and the document the server sent.

        Transient connection errors are retried when ``idempotent``, which
        defaults by method (GET/DELETE yes, POST no); lease verbs pass
        ``True`` explicitly — see the module docstring.
        """
        if idempotent is None:
            idempotent = method in ("GET", "DELETE")
        data = None
        headers = dict(extra_headers or {})
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        status, response_headers, blob = self._open(
            method, path, data, headers, attempts=(self.retries if idempotent else 0) + 1
        )
        self._check(status, response_headers, blob, ok_statuses)
        return status, _decode(blob)

    # -- API -----------------------------------------------------------------

    def submit(
        self,
        scenarios: Union[ScenarioLike, Sequence[ScenarioLike]],
        priority: int = 0,
        trace_parent: Optional[Tuple[str, str]] = None,
    ) -> str:
        """Submit scenario(s); returns the job id (job state: pending).

        ``trace_parent=(trace_id, span_id)`` attaches the submission to an
        existing fleet trace via the ``X-Repro-Trace`` header.
        """
        if isinstance(scenarios, (ScenarioConfig, dict)):
            scenarios = [scenarios]
        payloads = [
            scenario_to_dict(s) if isinstance(s, ScenarioConfig) else dict(s)
            for s in scenarios
        ]
        extra: Optional[Dict[str, str]] = None
        if trace_parent is not None:
            extra = {TRACE_HEADER: format_trace_context(*trace_parent)}
        _status, response = self._request(
            "POST",
            "/v1/jobs",
            {"scenarios": payloads, "priority": priority, "client": self.client_id},
            ok_statuses=(202,),
            extra_headers=extra,
        )
        return str(response["id"])

    def job_trace(self, job_id: str) -> Dict[str, Any]:
        """The job's merged fleet trace: ``{"id", "trace_id", "spans"}``."""
        return self._request("GET", f"/v1/jobs/{job_id}/trace")[1]

    def post_spans(self, spans: List[Dict[str, Any]]) -> int:
        """Ship finished spans to the coordinator; returns the accepted
        count (the fallback path when spans miss their shard delivery)."""
        _status, response = self._request(
            "POST", "/v1/spans", {"spans": list(spans)}, idempotent=True
        )
        return int(response.get("accepted", 0))

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")[1]

    def list_jobs(self) -> List[Dict[str, Any]]:
        return list(self._request("GET", "/v1/jobs")[1].get("jobs", []))

    def results(self, job_id: str) -> List[SimulationResult]:
        """The job's results; raises :class:`JobFailedError` when it ended
        failed or cancelled and :class:`ServiceError` (status 202) while
        unfinished."""
        status, response = self._request("GET", f"/v1/jobs/{job_id}/result")
        if status != 200:
            raise ServiceError(
                f"job {job_id} not finished: {response.get('state')}", 202
            )
        return [result_from_payload(p) for p in response["results"]]

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        poll_interval: float = 0.2,
        on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; returns the final status dict."""
        deadline = None if timeout is None else time.monotonic() + timeout
        last_version: Optional[int] = None
        while True:
            status = self.status(job_id)
            if on_progress is not None and status.get("version") != last_version:
                last_version = status.get("version")
                on_progress(status)
            if status.get("state") in ("done", "failed", "cancelled"):
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout:g}s waiting for job {job_id} "
                    f"(state: {status.get('state')})"
                )
            time.sleep(poll_interval)

    def fetch(
        self, job_id: str, timeout: Optional[float] = None
    ) -> List[SimulationResult]:
        """Wait for the job to end, then return its results (or raise
        what :meth:`results` raises for a failed or cancelled one)."""
        self.wait(job_id, timeout=timeout)
        return self.results(job_id)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/v1/jobs/{job_id}")[1]

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")[1]

    def metrics_text(self) -> str:
        status, headers, blob = self._open("GET", "/metrics", attempts=self.retries + 1)
        self._check(status, headers, blob, (200,))
        return blob.decode("utf-8")

    # -- the lease protocol (distributed workers) ----------------------------

    def claim(self, worker: str) -> Optional[Dict[str, Any]]:
        """Pull the next shard claim; ``None`` when the queue is idle."""
        _status, response = self._request(
            "POST", "/v1/leases/claim", {"worker": worker}, idempotent=True
        )
        lease = response.get("lease")
        return lease if isinstance(lease, dict) else None

    def lease_heartbeat(self, lease_id: str) -> Dict[str, Any]:
        """Renew a held lease; 404 (``ServiceError``) once it lapsed."""
        return self._request(
            "POST", f"/v1/leases/{lease_id}/heartbeat", {}, idempotent=True
        )[1]

    def complete(
        self,
        lease_id: str,
        results: Dict[str, SimulationResult],
        failures: Optional[Dict[str, str]] = None,
        stats: Optional[Dict[str, Any]] = None,
        spans: Optional[List[Dict[str, Any]]] = None,
    ) -> Dict[str, Any]:
        """Deliver a shard's results (first delivery wins server-side).

        ``spans`` ships the worker's finished trace spans with the
        delivery so they merge into the coordinator's job trace.
        """
        body: Dict[str, Any] = {
            "results": {
                key: result_to_payload(result) for key, result in results.items()
            },
            "failures": dict(failures or {}),
            "stats": dict(stats or {}),
        }
        if spans:
            body["spans"] = list(spans)
        return self._request(
            "POST", f"/v1/leases/{lease_id}/complete", body, idempotent=True
        )[1]

    def leases(self) -> Dict[str, Any]:
        """Active leases + fleet counts (``{"leases": [...], "fleet": {...}}``)."""
        return self._request("GET", "/v1/leases")[1]
