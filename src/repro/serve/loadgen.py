"""The serve load driver: zipf mix, single-flight burst, seeded chaos.

One module checks the serve daemon's promise — no accepted job is lost
and every payload is byte-identical to the one-shot output — under load
and under faults:

* :func:`hosted` boots a loopback daemon over a throwaway store and keeps
  an optional :class:`repro.faults.FaultPlan` installed while it is up;
* :func:`run_load` replays a zipf mix of repeated queries — the workload
  the Globus MDS2 study (PAPERS.md) showed collapsing an uncached
  service — through N concurrent clients and measures throughput,
  latency and the fraction answered without a fresh computation;
* :func:`burst` fires N identical requests at once and counts what they
  computed (single flight: exactly once);
* :func:`run_serve` (mix + fault-free burst) and :func:`run_chaos` (four
  phases under a seeded six-kind fault plan, run twice) build the
  ``serve`` and ``chaos`` records of ``scripts/run_benchmarks.py``, and
  :func:`gate` grades them — ``scripts/check_bench_schema.py`` calls the
  same function.

Command line::

    PYTHONPATH=src python -m repro.serve.loadgen --smoke [--seed N] [--output PATH]
    PYTHONPATH=src python -m repro.serve.loadgen --url http://127.0.0.1:8642

Self-hosted, it runs the mix, the burst and the chaos passes.  With
``--url`` it drives an external daemon with the mix only: faults are
injected in-process and cannot reach another process.  Exit status 1
means a violated invariant, one line each on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro import faults
from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import execute_job, parse_job
from repro.serve.server import JobServer, serve_http
from repro.sim.store import ResultStore

#: Figure artefacts cheap enough (<10 ms each) that a smoke mix is
#: compute-light yet still exercises queue, coalescing and store paths.
#: Every chaos pass replays them too: none reaches the process pool, so
#: the ``fabric.job`` indices of :func:`build_fault_plan` stay exact.
SMOKE_FIGURES: tuple[str, ...] = (
    "fig2", "fig5", "fig6", "fig7", "fig16", "fig23", "tab1", "tab2")

#: The serve-layer acceptance gate: on a repeated mix, at least this
#: fraction of requests must be answered by the store or by coalescing.
HIT_OR_COALESCED_GATE: float = 0.95

#: Seeds both the zipf schedule and the fault plan by default.
DEFAULT_SEED: int = 7

#: Fault-free single-flight probe: a job no mix template touches, so the
#: burst always starts from a cold entry.
SERVE_BURST_JOB: dict = {"kind": "scenario", "name": "hopping-jammed"}

#: The one chaos job that reaches the process pool: a registered waveform
#: sweep forced to 2 shards (``shards`` is a scheduling hint — results and
#: store keys are shard-invariant), because on a single-core host
#: ``shards="auto"`` resolves to 1 and the worker-crash / slow-shard
#: faults would be unreachable through the server.
WAVEFORM_JOB: dict = {"kind": "waveform", "name": "modes", "shards": 2}

#: The chaos burst: a distinct seed so it starts from a cold entry.
CHAOS_BURST_JOB: dict = {"kind": "waveform", "name": "modes", "seed": 777,
                         "shards": 2}

#: Admission-probe jobs: distinct seeds (distinct digests), forced
#: in-process (``shards=1``) so the probe exercises only the queue bound.
ADMISSION_JOBS: tuple[dict, ...] = tuple(
    {"kind": "waveform", "name": "modes", "seed": seed, "shards": 1}
    for seed in (901, 902, 903, 904, 905, 906))
ADMISSION_DEPTH: int = 3

#: Chaos stats compared across the same-seed rerun.  Timing-dependent
#: observables (rejections, retries) are left out: the contract is same
#: seed -> same fault schedule -> same *invariant* stats.
DETERMINISTIC_KEYS: tuple[str, ...] = (
    "jobs_lost", "results_identical", "duplicate_computations",
    "fault_kinds", "faults_fired")


def figure_templates(names) -> list[dict]:
    """Job templates for the given figure artefacts (default seeds)."""
    return [{"kind": "figure", "name": name} for name in names]


def zipf_schedule(num_templates: int, requests: int, *, alpha: float = 1.1,
                  seed: int = 0) -> list[int]:
    """A deterministic zipf-weighted template index sequence.

    Weight of rank ``r`` (1-based) is ``1 / r**alpha`` — the classic
    finite zipf mix: a few hot queries dominate, a long tail repeats
    rarely.  ``numpy``'s generator keeps it reproducible across hosts.
    """
    ranks = np.arange(1, num_templates + 1, dtype=float)
    weights = 1.0 / ranks ** alpha
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    return [int(i) for i in rng.choice(num_templates, size=requests, p=weights)]


@contextlib.contextmanager
def hosted(plan: faults.FaultPlan | None = None, **server_kwargs):
    """Boot a loopback daemon over a throwaway store; yield ``(job_server, url)``.

    ``server_kwargs`` go to :class:`~repro.serve.server.JobServer`.  A
    ``plan`` is installed once the daemon is up and removed before it
    stops, so every fault lands on live traffic.
    """
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as root:
        job_server = JobServer(ResultStore(root), **server_kwargs)
        httpd = serve_http(job_server)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        host, port = httpd.server_address[:2]
        try:
            with (faults.inject(plan) if plan is not None
                  else contextlib.nullcontext()):
                yield job_server, f"http://{host}:{port}"
        finally:
            httpd.shutdown()
            httpd.server_close()
            job_server.stop()


def run_load(client, templates: list[dict], *, requests: int = 200,
             clients: int = 8, alpha: float = 1.1, seed: int = 0,
             timeout: float = 300.0) -> dict:
    """Replay a zipf mix of ``templates`` through ``client`` and measure.

    ``client`` is anything with ``submit(job, wait=True, timeout=...)``
    and ``stats()`` — normally a
    :class:`~repro.serve.client.ServeClient`.  Returns the benchmark
    record: throughput of answered requests, latency, the server-side
    hit-or-coalesced ratio over this run (computed from stats deltas, so
    a pre-warmed daemon is measured correctly) and a per-template
    byte-identity verdict.
    """
    schedule = zipf_schedule(len(templates), requests, alpha=alpha, seed=seed)
    before = client.stats()["serve"]
    payloads: list[dict | None] = [None] * len(templates)
    identical = True
    answered = 0
    errors: list[str] = []
    latencies: list[float] = []
    lock = threading.Lock()
    cursor = iter(schedule)

    def next_index():
        with lock:
            return next(cursor, None)

    def drive():
        nonlocal identical, answered
        while True:
            index = next_index()
            if index is None:
                return
            started = time.perf_counter()
            try:
                reply = client.submit(templates[index], wait=True,
                                      timeout=timeout)
            except Exception as error:  # noqa: BLE001 - recorded, not raised
                with lock:
                    errors.append(f"{templates[index]['name']}: {error}")
                continue
            elapsed = time.perf_counter() - started
            body = reply.get("result")
            with lock:
                latencies.append(elapsed)
                if body is None:
                    errors.append(f"{templates[index]['name']}: no result "
                                  f"(status {reply.get('status')})")
                    continue
                answered += 1
                if payloads[index] is None:
                    payloads[index] = body
                elif payloads[index] != body:
                    identical = False

    threads = [threading.Thread(target=drive, name=f"loadgen-{i}")
               for i in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started
    after = client.stats()["serve"]
    delta = {key: after[key] - before[key]
             for key in ("requests", "coalesced", "store_hits", "computed",
                         "failed")}
    served = delta["coalesced"] + delta["store_hits"]
    ratio = served / delta["requests"] if delta["requests"] else 0.0
    latencies.sort()
    return {
        "templates": len(templates),
        "requests": requests,
        "clients": clients,
        "alpha": alpha,
        "wall_s": wall_s,
        "throughput_rps": answered / wall_s if wall_s > 0 else 0.0,
        "latency_p50_ms": 1e3 * latencies[len(latencies) // 2] if latencies else None,
        "latency_max_ms": 1e3 * latencies[-1] if latencies else None,
        "hit_or_coalesced_ratio": ratio,
        "counters": delta,
        "results_identical": identical and not errors,
        "errors": errors[:10],
    }


def burst(url: str, job: dict, n: int, *,
          seed: int = 0) -> tuple[list[dict], int]:
    """Fire ``n`` identical submits of ``job`` at once; the single-flight probe.

    Each thread has its own retrying client (jitter seeded from ``seed``).
    Returns the replies — ``{"status": "error", ...}`` for a submit that
    raised — and the computations the burst cost, from the daemon's
    ``computed`` counter: exactly 1 when single flight holds.
    """
    stats = ServeClient(url, retries=6, jitter_seed=seed)
    before = stats.stats()["serve"]["computed"]
    replies: list[dict] = [{}] * n

    def submit(index: int) -> None:
        client = ServeClient(url, retries=6, jitter_seed=seed * 1000 + index)
        try:
            replies[index] = client.submit(job, wait=True, timeout=300)
        except ServeError as error:
            replies[index] = {"status": "error", "error": str(error)}

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return replies, stats.stats()["serve"]["computed"] - before


def _mix(smoke: bool, *, artefacts=None, requests=None, **load) -> dict:
    """:func:`run_load` arguments: the smoke set, or every figure driver."""
    if not artefacts:
        from repro.sim.experiments import FIGURE_DRIVERS

        artefacts = SMOKE_FIGURES if smoke else sorted(FIGURE_DRIVERS)
    return {"templates": figure_templates(artefacts),
            "requests": requests or (240 if smoke else 800), **load}


def run_serve(*, smoke: bool = False, seed: int = DEFAULT_SEED,
              **mix) -> dict:
    """The ``serve`` record: the zipf mix, then the fault-free burst.

    Both run against one hosted daemon; ``mix`` may override the mix's
    ``artefacts``, ``requests`` and ``clients``.
    """
    with hosted(workers=2) as (_, url):
        record = run_load(ServeClient(url), seed=seed, **_mix(smoke, **mix))
        _, record["duplicate_computations"] = burst(
            url, SERVE_BURST_JOB, 16, seed=seed)
    return record


# ----------------------------------------------------------------------
def build_fault_plan(seed: int) -> faults.FaultPlan:
    """The seeded schedule: six fault kinds at deterministic call indices.

    Index-based (not probability-based) targeting keeps fire counts exact
    under thread-timing variance; every index is chosen against the known
    sequential call order of a chaos pass (see inline notes).
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


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def _wait_done(client: ServeClient, digest: str, timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        view = client.status(digest)
        if view["status"] in ("done", "failed"):
            return view
        time.sleep(0.02)
    raise TimeoutError(f"job {digest[:12]} not finished after {timeout}s")


def _chaos_pass(seed: int, burst_size: int, expected: dict[str, str]) -> dict:
    """One chaos run under :func:`build_fault_plan`; the invariant record."""
    plan = build_fault_plan(seed)
    mix = figure_templates(SMOKE_FIGURES) + [WAVEFORM_JOB]
    mismatches: list[str] = []
    accepted: list[str] = []

    def check(job: dict, payload) -> None:
        if _canonical(payload) != expected[_canonical(job)]:
            mismatches.append(_canonical(job))

    with hosted(plan, workers=2, max_queue_depth=ADMISSION_DEPTH,
                job_deadline_s=60.0, watchdog_interval_s=0.2) as (
            job_server, url):
        client = ServeClient(url, retries=6, jitter_seed=seed)

        # -- phase 1: sequential mix under faults ----------------------
        for job in mix:
            reply = client.submit(job, wait=True, timeout=120)
            assert reply.get("status") == "done", f"mix job failed: {reply}"
            accepted.append(reply["digest"])
            check(job, reply["result"])

        # -- phase 2: a restarted daemon re-reads every entry ----------
        # The live daemon answers repeats from its memo, so the torn
        # entry is read back by a fresh server (own queue file, same
        # store root): corrupt-entry recovery as a miss + recompute.
        root = Path(job_server.store.root)
        with JobServer(ResultStore(root), workers=2,
                       queue_path=root / "restart-queue.sqlite") as restarted:
            for job in mix:
                reread = restarted.wait(restarted.submit(job), 120)
                assert reread.status == "done", f"re-read failed: {reread.error}"
                check(job, reread.payload)
            corrupt_recoveries = restarted.store.stats()["corrupt"]

        # -- phase 3: identical burst with a mid-flight crash ----------
        replies, duplicate_computations = burst(
            url, CHAOS_BURST_JOB, burst_size, seed=seed)
        for reply in replies:
            assert reply.get("status") == "done", f"burst failed: {reply}"
            check(CHAOS_BURST_JOB, reply["result"])
        accepted.append(replies[0]["digest"])

        # -- phase 4: admission control + degraded health --------------
        raw = ServeClient(url, retries=0)
        rejected_jobs: list[dict] = []
        for job in ADMISSION_JOBS:
            try:
                accepted.append(raw.submit(job, wait=False)["digest"])
            except ServeError as error:
                if error.status != 503:
                    raise
                rejected_jobs.append(job)
                assert error.payload.get("retry_after_s") is not None, \
                    "503 must carry a Retry-After hint"
        degraded_observed = False
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
        for digest in accepted:
            view = _wait_done(client, digest)
            assert view["status"] == "done", f"{digest[:12]}: {view}"
        for job in ADMISSION_JOBS:
            if job not in rejected_jobs:
                digest = raw.submit(job, wait=False)["digest"]  # memo hit
                check(job, raw.result(digest)["result"])

        # -- drain check: nothing queued/running left ------------------
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
            "rejected_requests": len(rejected_jobs),
            "retry_after_honored": bool(rejected_jobs),
            "degraded_observed": degraded_observed,
            "corrupt_recoveries": corrupt_recoveries,
            "client_retries_used": client.retries_used,
            "queue_lock_retries": job_server.queue.lock_retries,
            "pool_rebuilds": job_server.stats()["fabric"]["pool"]["pool_rebuilds"],
        }


def run_chaos(seed: int = DEFAULT_SEED, *, smoke: bool = False) -> dict:
    """The ``chaos`` record: two same-seed chaos passes against one reference.

    The reference payloads are the in-process one-shot output
    (:func:`~repro.serve.jobs.execute_job` without a store), which the
    serve determinism contract says every served payload must equal.
    """
    started = time.perf_counter()
    jobs = (figure_templates(SMOKE_FIGURES)
            + [WAVEFORM_JOB, CHAOS_BURST_JOB, *ADMISSION_JOBS])
    expected = {_canonical(job): _canonical(execute_job(parse_job(job))[0])
                for job in jobs}
    burst_size = 6 if smoke else 8
    first = _chaos_pass(seed, burst_size, expected)
    second = _chaos_pass(seed, burst_size, expected)
    repeat_diff = {key: [first[key], second[key]]
                   for key in DETERMINISTIC_KEYS if first[key] != second[key]}
    record = {**first, "smoke": smoke,
              "repeat_stats_identical": not repeat_diff,
              "wall_s": time.perf_counter() - started}
    if repeat_diff:
        record["repeat_diff"] = repeat_diff
    return record


# ----------------------------------------------------------------------
def gate(kind: str, record: dict) -> list[str]:
    """Violations in one record (empty = pass).

    ``kind`` is ``"mix"`` (a :func:`run_load` record), ``"serve"``
    (:func:`run_serve`: the mix plus the burst) or ``"chaos"``
    (:func:`run_chaos`).  Missing or malformed fields count as violations,
    so a truncated benchmark payload fails too.
    """
    get = record.get
    failures: list[str] = []

    def need(ok: bool, message: str) -> None:
        if not ok:
            failures.append(f"{kind}: {message}")

    def at_least(field: str, floor: float) -> bool:
        value = get(field)
        return isinstance(value, (int, float)) and value >= floor

    need(get("results_identical") is True,
         "payloads differ between repeats or from the one-shot output "
         f"({get('errors') or get('mismatches')!r})")
    if kind in ("mix", "serve"):
        rps = get("throughput_rps")
        need(isinstance(rps, (int, float)) and 0 < rps < float("inf"),
             f"throughput_rps {rps!r} missing or not finite")
        need(at_least("hit_or_coalesced_ratio", HIT_OR_COALESCED_GATE),
             f"hit_or_coalesced_ratio {get('hit_or_coalesced_ratio')!r} "
             f"below the {HIT_OR_COALESCED_GATE} floor")
    if kind in ("serve", "chaos"):
        need(get("duplicate_computations") == 1,
             "an identical burst computed "
             f"{get('duplicate_computations')!r} times (single flight: 1)")
    if kind == "chaos":
        need(get("jobs_lost") == 0, f"jobs_lost = {get('jobs_lost')!r} "
                                    "(expected 0)")
        fault_kinds = get("fault_kinds")
        need(isinstance(fault_kinds, list) and len(fault_kinds) >= 5,
             f"fewer than 5 fault kinds fired: {fault_kinds!r}")
        need(get("repeat_stats_identical") is True,
             f"same-seed rerun differs: {get('repeat_diff')!r}")
        need(at_least("rejected_requests", 1),
             "admission control never rejected")
        need(get("degraded_observed") is True,
             "/healthz never reported degraded under saturation")
        need(at_least("corrupt_recoveries", 1),
             "the corrupted store entry was never read back")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve.loadgen",
        description="Serve load driver: zipf mix, single-flight burst and "
                    "seeded chaos passes against the repro serve daemon.")
    parser.add_argument("--url", help="drive this daemon with the mix only; "
                                      "omitted = self-host a daemon and run "
                                      "the mix, the burst and the chaos passes")
    parser.add_argument("--smoke", action="store_true",
                        help="small fixed CI mix (cheap figures, few requests)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seeds the zipf schedule and the fault plan")
    parser.add_argument("--output", metavar="PATH",
                        help="write the JSON record here as well as stdout")
    parser.add_argument("--requests", type=int, default=None,
                        help="mix size (default 240 with --smoke, else 800)")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--artefacts", nargs="*", default=None,
                        help="figure artefacts in the mix (default: the smoke "
                             "set with --smoke, else every figure)")
    args = parser.parse_args(argv)
    mix = {"artefacts": args.artefacts, "requests": args.requests,
           "clients": args.clients}
    if args.url:
        record = {"mix": run_load(ServeClient(args.url), seed=args.seed,
                                  **_mix(args.smoke, **mix))}
    else:
        record = {"serve": run_serve(smoke=args.smoke, seed=args.seed, **mix),
                  "chaos": run_chaos(args.seed, smoke=args.smoke)}
    text = json.dumps(record, indent=2, sort_keys=True)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    failures = [failure for kind, section in record.items()
                for failure in gate(kind, section)]
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
