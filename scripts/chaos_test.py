#!/usr/bin/env python
"""Chaos harness: replay a seeded fault schedule against a live daemon.

Boots a real serve daemon (HTTP on an ephemeral loopback port, temporary
store), installs a deterministic :class:`repro.faults.FaultPlan` injecting
six fault kinds — worker crash, slow shard, store write error, corrupt
store entry, queue "database is locked", HTTP disconnect — and drives a
job mix through a retrying client.  Asserts the robustness invariants
that make the stack safe to ship:

1. **No accepted job is ever lost**: every admitted submit ends ``done``
   (our schedule is bounded, so retries always eventually succeed), and
   the queue drains to zero queued/running rows.
2. **Byte-identical degradation**: every payload served under faults is
   byte-identical (canonical JSON) to the fault-free baseline run.
3. **Single-flight survives crashes**: a concurrent burst of identical
   requests performs exactly one computation even when the injected
   schedule kills a pool worker mid-flight.
4. **Determinism**: rerunning the same seed reproduces the same fault
   fire counts and the same invariant stats.

Plus the degradation contracts: admission control answers 503 +
``Retry-After`` at the queue-depth bound (and the retrying client
eventually lands the job), and ``/healthz`` reports ``degraded`` while
saturated.

Chaos runs never touch golden artefacts: every pass uses a throwaway
temporary store and queue, and fault injection only perturbs *where and
when* work happens — payload bits come from the same engines the golden
fixtures pin.

Usage::

    PYTHONPATH=src python scripts/chaos_test.py --smoke
    PYTHONPATH=src python scripts/chaos_test.py --seed 7 --output chaos.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import faults  # noqa: E402
from repro.serve.client import ServeClient, ServeError  # noqa: E402
from repro.serve.server import JobServer, serve_http  # noqa: E402
from repro.sim.store import ResultStore  # noqa: E402

#: Figure artefacts in the mix (cheap, deterministic, store-backed).
FULL_FIGURES: tuple[str, ...] = ("fig5", "fig6", "fig7", "tab1", "tab2")
SMOKE_FIGURES: tuple[str, ...] = ("fig5", "fig7", "tab1")

#: The one job that reaches the process pool: a registered waveform sweep
#: forced to 2 shards (``shards`` is a scheduling hint — results and
#: store keys are shard-invariant), because on a single-core host
#: ``shards="auto"`` always resolves to 1 and the worker-crash /
#: slow-shard faults would be unreachable through the server.
WAVEFORM_JOB: dict = {"kind": "waveform", "name": "modes", "shards": 2}

#: Identical-request burst (duplicate-computation probe) — a distinct
#: seed so the burst always starts from a cold store entry.
BURST_JOB: dict = {"kind": "waveform", "name": "modes", "seed": 777,
                   "shards": 2}

#: Admission-probe jobs: distinct seeds (distinct digests), forced
#: in-process (``shards=1``) so the probe exercises only the queue bound.
ADMISSION_SEEDS: tuple[int, ...] = (901, 902, 903, 904, 905, 906)
ADMISSION_DEPTH: int = 3

#: Stats compared across the determinism re-run.  Deliberately excludes
#: timing-dependent observables (rejection counts, retry counts): the
#: contract is same seed -> same fault schedule -> same *invariant* stats.
DETERMINISTIC_KEYS: tuple[str, ...] = (
    "jobs_lost", "results_identical", "duplicate_computations",
    "fault_kinds", "faults_fired")


def build_fault_plan(seed: int) -> faults.FaultPlan:
    """The seeded schedule: six fault kinds at deterministic call indices.

    Index-based (not probability-based) targeting keeps fire counts exact
    under thread-timing variance; every index is chosen against the known
    sequential call order of the harness (see inline notes).
    """
    return faults.FaultPlan(seed=seed, specs=(
        # fabric.job calls: the mix waveform submits shards at indices
        # 0,1; the crash at 0 breaks the pool, the rebuild resubmits at
        # 2,3 (slowed at 2).  The burst waveform lands at 4,5; the crash
        # at 4 kills a worker mid-burst, the rebuild resubmits at 6,7.
        faults.FaultSpec(kind="worker_crash", site="fabric.job", at=(0, 4)),
        faults.FaultSpec(kind="slow_shard", site="fabric.job", at=(2,),
                         delay_s=0.1),
        # store.write counts every put attempt: index 0 is the first
        # figure's entry (the job still succeeds, uncached).
        faults.FaultSpec(kind="store_write_error", site="store.write",
                         at=(0,)),
        # store.corrupt counts successful puts: index 1 corrupts the
        # second persisted entry; a restarted daemon then re-reads every
        # entry, so the damage is exercised as a miss + recompute.
        faults.FaultSpec(kind="store_corrupt_entry", site="store.corrupt",
                         at=(1,)),
        # queue.op counts every queue transaction (enqueues, claims,
        # recover sweeps flow continuously), so these indices are always
        # reached; the queue's bounded backoff absorbs both invisibly.
        faults.FaultSpec(kind="queue_locked", site="queue.op", at=(5, 10)),
        # http.reply index 0 is the reply to the first submit: dropped
        # before any bytes, forcing the client's connection retry.
        faults.FaultSpec(kind="http_disconnect", site="http.reply", at=(0,)),
    ))


def _job_key(job: dict) -> str:
    return json.dumps(job, sort_keys=True)


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _mix(figures: tuple[str, ...]) -> list[dict]:
    return [{"kind": "figure", "name": name} for name in figures] + [
        dict(WAVEFORM_JOB)]


def _wait_done(client: ServeClient, digest: str, timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        view = client.status(digest)
        if view["status"] in ("done", "failed"):
            return view
        time.sleep(0.02)
    raise TimeoutError(f"job {digest[:12]} not finished after {timeout}s")


def _serve_context(**server_kwargs):
    """(store root, server, httpd, url) for one self-hosted daemon."""
    root = tempfile.TemporaryDirectory(prefix="repro-chaos-")
    job_server = JobServer(ResultStore(root.name), **server_kwargs)
    httpd = serve_http(job_server)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    return root, job_server, httpd, f"http://{host}:{port}"


def baseline_pass(figures: tuple[str, ...], burst_threads: int) -> dict[str, str]:
    """Fault-free reference payloads, canonical-JSON keyed by job."""
    faults.clear()
    root, job_server, httpd, url = _serve_context(workers=2)
    try:
        client = ServeClient(url, retries=0)
        expected: dict[str, str] = {}
        for job in _mix(figures) + [dict(BURST_JOB)] + [
                {"kind": "waveform", "name": "modes", "seed": seed, "shards": 1}
                for seed in ADMISSION_SEEDS]:
            reply = client.submit(job, wait=True, timeout=120)
            if reply.get("status") != "done":
                raise RuntimeError(f"baseline job failed: {reply}")
            expected[_job_key(job)] = _canonical(reply["result"])
        return expected
    finally:
        httpd.shutdown()
        httpd.server_close()
        job_server.stop()
        root.cleanup()


def chaos_pass(seed: int, figures: tuple[str, ...], burst_threads: int,
               expected: dict[str, str]) -> dict:
    """One full chaos run; returns the invariant record."""
    plan = build_fault_plan(seed)
    root, job_server, httpd, url = _serve_context(
        workers=2, max_queue_depth=ADMISSION_DEPTH,
        job_deadline_s=60.0, watchdog_interval_s=0.2)
    mismatches: list[str] = []
    accepted: list[str] = []

    def check(job: dict, payload) -> None:
        key = _job_key(job)
        if _canonical(payload) != expected[key]:
            mismatches.append(key)

    try:
        with faults.inject(plan):
            client = ServeClient(url, retries=6, jitter_seed=seed)

            # -- phase 1: sequential mix under faults ------------------
            for job in _mix(figures):
                reply = client.submit(job, wait=True, timeout=120)
                assert reply.get("status") == "done", f"mix job failed: {reply}"
                accepted.append(reply["digest"])
                check(job, reply["result"])

            # -- phase 2: a restarted daemon re-reads every entry -----
            # The live daemon answers repeats from its memo, so the torn
            # entry is read back by a fresh server (own queue file, same
            # store root): corrupt-entry recovery as a miss + recompute.
            with JobServer(ResultStore(root.name), workers=2,
                           queue_path=Path(root.name) / "restart-queue.sqlite"
                           ) as restarted:
                for job in _mix(figures):
                    reread = restarted.wait(restarted.submit(job), 120)
                    assert reread.status == "done", \
                        f"re-read failed: {reread.error}"
                    check(job, reread.payload)
                corrupt_recoveries = restarted.store.stats()["corrupt"]

            # -- phase 3: identical burst with a mid-flight crash ------
            computed_before = job_server.computed
            burst_replies: list[dict] = []
            burst_lock = threading.Lock()

            def burst(index: int) -> None:
                burst_client = ServeClient(url, retries=6,
                                           jitter_seed=seed * 1000 + index)
                reply = burst_client.submit(dict(BURST_JOB), wait=True,
                                            timeout=120)
                with burst_lock:
                    burst_replies.append(reply)

            threads = [threading.Thread(target=burst, args=(i,))
                       for i in range(burst_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(burst_replies) == burst_threads
            for reply in burst_replies:
                assert reply.get("status") == "done", f"burst failed: {reply}"
                check(dict(BURST_JOB), reply["result"])
            accepted.append(burst_replies[0]["digest"])
            duplicate_computations = job_server.computed - computed_before

            # -- phase 4: admission control + degraded health ----------
            raw = ServeClient(url, retries=0)
            rejected_jobs: list[dict] = []
            rejected = 0
            degraded_observed = False
            admission_jobs = [
                {"kind": "waveform", "name": "modes", "seed": s, "shards": 1}
                for s in ADMISSION_SEEDS]
            for job in admission_jobs:
                try:
                    reply = raw.submit(job, wait=False)
                    accepted.append(reply["digest"])
                except ServeError as error:
                    if error.status != 503:
                        raise
                    rejected += 1
                    rejected_jobs.append(job)
                    retry_after = error.payload.get("retry_after_s")
                    assert retry_after is not None, \
                        "503 must carry a Retry-After hint"
            for _ in range(200):
                if job_server.health()["state"] == "degraded":
                    degraded_observed = True
                    break
                time.sleep(0.01)
            retry_client = ServeClient(url, retries=10, jitter_seed=seed + 1)
            for job in rejected_jobs:
                reply = retry_client.submit(job, wait=True, timeout=120)
                assert reply.get("status") == "done", \
                    f"rejected job never landed: {reply}"
                accepted.append(reply["digest"])
                check(job, reply["result"])
            for digest in list(accepted):
                view = _wait_done(client, digest)
                assert view["status"] == "done", f"{digest[:12]}: {view}"
            for job in admission_jobs:
                if job in rejected_jobs:
                    continue
                digest = raw.submit(job, wait=False)["digest"]  # memo hit
                payload = raw.result(digest)["result"]
                check(job, payload)

            # -- drain check: nothing queued/running left --------------
            counts = job_server.queue.counts()
            jobs_lost = counts["queued"] + counts["running"] + sum(
                1 for digest in accepted
                if client.status(digest)["status"] != "done")

        fired = plan.stats()["fired"]
        return {
            "seed": seed,
            "jobs_lost": jobs_lost,
            "results_identical": not mismatches,
            "mismatches": mismatches[:5],
            "duplicate_computations": duplicate_computations,
            "fault_kinds": list(plan.fault_kinds_fired()),
            "faults_fired": fired,
            "faults_total": sum(fired.values()),
            "rejected_requests": rejected,
            "retry_after_honored": bool(rejected_jobs),
            "degraded_observed": degraded_observed,
            "corrupt_recoveries": corrupt_recoveries,
            "client_retries_used": client.retries_used,
            "queue_lock_retries": job_server.queue.lock_retries,
            "pool_rebuilds": job_server.stats()["fabric"]["pool"]["pool_rebuilds"],
        }
    finally:
        faults.clear()
        httpd.shutdown()
        httpd.server_close()
        job_server.stop()
        root.cleanup()


def run_chaos(seed: int = 7, *, smoke: bool = False) -> dict:
    """Baseline + chaos + determinism re-run; returns the full record."""
    figures = SMOKE_FIGURES if smoke else FULL_FIGURES
    burst_threads = 6 if smoke else 8
    started = time.perf_counter()
    expected = baseline_pass(figures, burst_threads)
    first = chaos_pass(seed, figures, burst_threads, expected)
    second = chaos_pass(seed, figures, burst_threads, expected)
    repeat_identical = all(
        first[key] == second[key] for key in DETERMINISTIC_KEYS)
    record = dict(first)
    record.update({
        "smoke": smoke,
        "repeat_stats_identical": repeat_identical,
        "wall_s": time.perf_counter() - started,
    })
    if not repeat_identical:
        record["repeat_diff"] = {
            key: [first[key], second[key]] for key in DETERMINISTIC_KEYS
            if first[key] != second[key]}
    return record


def gate(record: dict) -> list[str]:
    """The CI invariants; returns violations (empty = pass)."""
    failures = []
    if record["jobs_lost"] != 0:
        failures.append(f"jobs_lost = {record['jobs_lost']} (expected 0)")
    if not record["results_identical"]:
        failures.append(f"payload mismatches: {record['mismatches']}")
    if record["duplicate_computations"] != 1:
        failures.append(
            f"duplicate_computations = {record['duplicate_computations']} "
            "(expected 1)")
    if len(record["fault_kinds"]) < 5:
        failures.append(
            f"only {len(record['fault_kinds'])} fault kinds fired: "
            f"{record['fault_kinds']}")
    if not record["repeat_stats_identical"]:
        failures.append(f"non-deterministic rerun: {record.get('repeat_diff')}")
    if record["rejected_requests"] < 1:
        failures.append("admission control never rejected")
    if not record["degraded_observed"]:
        failures.append("/healthz never reported degraded under saturation")
    if record["corrupt_recoveries"] < 1:
        failures.append("the corrupted store entry was never read back "
                        "(corrupt_recoveries = 0)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chaos_test",
        description="Seeded fault-injection harness for the serve stack.")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true",
                        help="trimmed figure mix for CI (<60s)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the JSON record here as well as stdout")
    args = parser.parse_args(argv)
    record = run_chaos(args.seed, smoke=args.smoke)
    text = json.dumps(record, indent=2, sort_keys=True)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    failures = gate(record)
    for failure in failures:
        print(f"CHAOS FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
