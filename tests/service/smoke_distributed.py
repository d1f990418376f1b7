"""CI smoke test for distributed mode (not collected by pytest).

Boots a real ``repro-serve --distributed`` coordinator plus real
``repro-worker`` subprocesses and checks the fleet contract end to end,
through the production process/signal path:

1. a cold sweep executed by a worker fleet is bit-identical to running
   the same scenarios directly with ``run_many``;
2. ``SIGKILL``-ing a worker mid-sweep loses no grid points: the janitor
   expires its lease, the shard is requeued, and a second worker
   finishes the job;
3. the job's merged fleet trace carries spans from the coordinator AND
   the surviving worker, covers >=95% of the job wall, and renders
   through the ``repro-trace job`` explainer;
4. a result comes home once, inside ``complete``: ``/v1/cache/<key>`` is
   no resource (404), ``/metrics`` has no ``repro_service_cache_remote_*``
   series, and the coordinator's cache holds one entry per distinct key,
   so a warm resubmission completes without a single new execution;
5. SIGTERM stops workers and drains the coordinator gracefully.

Run from the repo root::

    PYTHONPATH=src:. python tests/service/smoke_distributed.py
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SEEDS = "1,2,3,4,5,6"
DURATION = 60.0
LEASE_TTL = 2.0


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _start_coordinator(workdir):
    port_file = workdir / "port"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service.cli", "serve",
            "--port", "0",
            "--port-file", str(port_file),
            "--distributed",
            "--cache-dir", str(workdir / "coordinator-cache"),
            "--journal", str(workdir / "journal.jsonl"),
            "--lease-ttl", str(LEASE_TTL),
            "--shard-size", "2",
            "--grace", "10",
        ],
        cwd=str(REPO_ROOT),
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if port_file.exists() and port_file.read_text().strip():
            _, port = port_file.read_text().split()
            return process, f"http://127.0.0.1:{port}"
        if process.poll() is not None:
            break
        time.sleep(0.1)
    process.kill()
    raise SystemExit(f"FAIL: coordinator did not come up:\n{process.communicate()[0]}")


def _start_worker(workdir, url, name):
    log = open(workdir / f"{name}.log", "w")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.service.cli", "worker",
            "--url", url,
            "--worker-id", name,
            "--cache-dir", str(workdir / f"{name}-cache"),
            "--poll", "0.2",
            "--verbose",
        ],
        cwd=str(REPO_ROOT),
        env=_env(),
        stdout=log,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _submit_async(workdir, url, json_path):
    command = [
        sys.executable, "-m", "repro.service.cli", "submit",
        "--url", url,
        "submit", "--preset", "tiny", "--duration", str(DURATION),
        "--seeds", SEEDS, "--wait", "--json", str(json_path),
    ]
    log = open(workdir / f"{json_path.stem}-submit.log", "w")
    return subprocess.Popen(
        command, cwd=str(REPO_ROOT), env=_env(),
        stdout=log, stderr=subprocess.STDOUT, text=True,
    )


def _wait_for_active_lease(url, timeout_s=30.0):
    """Block until some worker holds a lease (so a kill lands mid-shard)."""
    import urllib.request

    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        with urllib.request.urlopen(f"{url}/v1/leases", timeout=5.0) as response:
            payload = json.loads(response.read().decode("utf-8"))
        if payload.get("leases"):
            return payload["leases"]
        time.sleep(0.05)
    raise SystemExit("FAIL: no worker ever claimed a lease")


def _check_job_trace(workdir, url):
    """The cold job's merged trace: two processes, >=95% wall coverage,
    and the ``repro-trace job`` explainer renders it."""
    import urllib.request

    from repro.obs.fleet import trace_coverage

    with urllib.request.urlopen(f"{url}/v1/jobs", timeout=5.0) as response:
        jobs = json.loads(response.read().decode("utf-8"))["jobs"]
    done = [job for job in jobs if job.get("state") == "done"]
    if not done:
        raise SystemExit(f"FAIL: no finished job to trace, jobs={jobs}")
    job_id = done[0]["id"]
    with urllib.request.urlopen(
        f"{url}/v1/jobs/{job_id}/trace", timeout=5.0
    ) as response:
        trace = json.loads(response.read().decode("utf-8"))
    spans = trace.get("spans") or []
    procs = sorted({span.get("proc") for span in spans})
    if len(procs) < 2:
        raise SystemExit(
            f"FAIL: merged trace should span coordinator + worker, procs={procs}"
        )
    coverage = trace_coverage(spans)
    if coverage["coverage"] < 0.95:
        raise SystemExit(
            f"FAIL: trace covers {coverage['coverage']:.1%} of the job wall "
            f"(< 95%); {len(spans)} spans from {procs}"
        )
    trace_path = workdir / "cold-trace.json"
    trace_path.write_text(json.dumps(trace))
    explain = subprocess.run(
        [sys.executable, "-m", "repro.obs.tracecli", "job", str(trace_path)],
        cwd=str(REPO_ROOT), env=_env(),
        capture_output=True, text=True, timeout=60,
    )
    if explain.returncode != 0 or "where did the time go" not in explain.stdout:
        raise SystemExit(
            f"FAIL: repro-trace job exited {explain.returncode}:\n"
            f"{explain.stdout}\n{explain.stderr}"
        )
    print(
        f"== trace: {len(spans)} spans from {len(procs)} processes "
        f"({', '.join(procs)}) cover {coverage['coverage']:.1%} of the job"
    )


def _metrics(url):
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.service.cli", "submit",
            "--url", url, "metrics",
        ],
        cwd=str(REPO_ROOT), env=_env(),
        capture_output=True, text=True, timeout=30,
    )
    values = {}
    for line in proc.stdout.splitlines():
        if line.startswith("#") or " " not in line:
            continue
        name, value = line.rsplit(" ", 1)
        try:
            values[name] = float(value)
        except ValueError:
            pass
    return values


def _configs():
    from repro.scenarios import presets

    return [
        presets.tiny_scenario(seed=int(seed)).but(packet_rate=3.0, duration=DURATION)
        for seed in SEEDS.split(",")
    ]


def _reference_payloads():
    from repro.analysis.cache import result_to_payload
    from repro.analysis.runner import run_many

    return [result_to_payload(r) for r in run_many(_configs(), processes=1)]


def _check_one_way_home(workdir, url, metrics):
    """No cache route, no remote-tier counter, one coordinator entry per key."""
    import urllib.error
    import urllib.request

    from repro.analysis.cache import scenario_hash

    keys = {scenario_hash(config) for config in _configs()}
    key = min(keys)
    try:
        urllib.request.urlopen(f"{url}/v1/cache/{key}", timeout=5.0).close()
        status = 200
    except urllib.error.HTTPError as exc:
        status = exc.code
    if status != 404:
        raise SystemExit(f"FAIL: GET /v1/cache/{key[:12]}… answered {status}, not 404")
    remote = sorted(name for name in metrics if name.startswith("repro_service_cache_remote_"))
    if remote:
        raise SystemExit(f"FAIL: /metrics still renders {remote}")
    stored = sorted(path.stem for path in (workdir / "coordinator-cache").glob("*/*.json"))
    if stored != sorted(keys):
        raise SystemExit(
            f"FAIL: coordinator cache holds {len(stored)} entries for {len(keys)} keys"
        )
    print(f"== one way home: /v1/cache is 404, {len(stored)} entries for {len(keys)} keys")


def main():
    workdir = Path(tempfile.mkdtemp(prefix="repro-distributed-smoke-"))
    coordinator, url = _start_coordinator(workdir)
    workers = {}
    try:
        print(f"== coordinator up at {url} (lease ttl {LEASE_TTL:g}s)")

        workers["w1"] = _start_worker(workdir, url, "w1")
        print(f"== worker w1 up; submitting a cold {len(SEEDS.split(','))}-seed sweep")
        submit = _submit_async(workdir, url, workdir / "cold.json")

        # Wait until w1 actually holds a lease, then kill it the hard
        # way: no signal handler runs, no delivery happens, the lease
        # just stops being renewed.
        _wait_for_active_lease(url)
        workers["w1"].kill()  # SIGKILL
        workers["w1"].wait(timeout=10)
        print("== w1 SIGKILLed mid-sweep; starting w2 to pick up the pieces")
        workers["w2"] = _start_worker(workdir, url, "w2")

        if submit.wait(timeout=600) != 0:
            raise SystemExit("FAIL: submission did not complete after the kill")
        fetched = json.loads((workdir / "cold.json").read_text())
        print("== job completed; checking results against direct run_many")
        reference = _reference_payloads()
        if fetched != reference:
            raise SystemExit("FAIL: fleet results differ from direct run_many")
        print("== results bit-identical to run_many despite the dead worker")

        _check_job_trace(workdir, url)

        metrics = _metrics(url)
        if metrics.get("repro_service_fleet_leases_expired", 0) < 1:
            raise SystemExit(
                f"FAIL: expected an expired lease after SIGKILL, metrics={metrics}"
            )
        if metrics.get("repro_service_fleet_shards_requeued", 0) < 1:
            raise SystemExit("FAIL: the dead worker's shard was never requeued")
        _check_one_way_home(workdir, url, metrics)
        executed_cold = metrics.get("repro_service_sims_executed", 0)
        print(
            "== fleet metrics: "
            f"leases_expired={metrics['repro_service_fleet_leases_expired']:g} "
            f"shards_requeued={metrics['repro_service_fleet_shards_requeued']:g}"
        )

        print("== warm resubmission (must be pure cache hits)")
        warm = _submit_async(workdir, url, workdir / "warm.json")
        if warm.wait(timeout=120) != 0:
            raise SystemExit("FAIL: warm resubmission failed")
        if json.loads((workdir / "warm.json").read_text()) != reference:
            raise SystemExit("FAIL: warm results differ from the cold run")
        metrics = _metrics(url)
        if metrics.get("repro_service_sims_executed", 0) != executed_cold:
            raise SystemExit(
                "FAIL: warm resubmission executed new simulations "
                f"({metrics.get('repro_service_sims_executed')} vs {executed_cold})"
            )
        print("== warm run executed 0 new simulations")
    finally:
        for name, proc in workers.items():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for name, proc in workers.items():
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise SystemExit(f"FAIL: worker {name} ignored SIGTERM")
        if coordinator.poll() is None:
            coordinator.send_signal(signal.SIGTERM)
        try:
            out, _ = coordinator.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            coordinator.kill()
            raise SystemExit("FAIL: coordinator did not drain within 60s of SIGTERM")
    if workers["w2"].returncode != 0:
        raise SystemExit(
            f"FAIL: w2 exited {workers['w2'].returncode}:\n"
            + (workdir / "w2.log").read_text()
        )
    if coordinator.returncode != 0:
        raise SystemExit(f"FAIL: coordinator exited {coordinator.returncode}:\n{out}")
    print("== graceful shutdown confirmed")
    print("DISTRIBUTED SMOKE OK")


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    main()
