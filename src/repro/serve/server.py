"""The coalescing job server and its HTTP front end.

Request lifecycle (all under one lock, so the sequence is atomic per
request — this is what makes single-flight *strict*):

1. parse → store key → digest (the coalescing key **is** the store
   digest, so "identical request" means "identical result bits").
2. digest already in flight → attach to that job (*coalesced*).
3. store hit → answer immediately (*store*), no queue entry.
4. otherwise register the job, persist it in the
   :class:`~repro.serve.queue.PersistentJobQueue` with priority
   = :meth:`CostModel.predict_seconds <repro.sim.execution.CostModel.predict_seconds>`
   and wake a worker (*miss*).

Worker threads claim queued digests cheapest-first and run
:func:`~repro.serve.jobs.execute_job` on the warm execution fabric.  A
failed job is **not** cached: its error is recorded, waiters are
released, and a later identical submit re-queues it from scratch.

Determinism contract: workers execute through the *same* entry points
as the one-shot CLI, and every engine is deterministic under a fixed
seed, so a served payload is byte-identical to the one-shot output —
which is also why a late result from an abandoned worker can be
discarded safely: any store write it made carries the same bits.

The HTTP layer is a thin JSON translation on
:class:`http.server.ThreadingHTTPServer` (stdlib only):

* ``POST /jobs`` — submit; ``?wait=1[&timeout=s]`` blocks for the result.
* ``GET /jobs/<digest>`` — status + provenance (+ queue bookkeeping).
* ``GET /jobs/<digest>/result`` — the stored payload.
* ``GET /stats`` — serve counters, queue counts, store/fabric stats.
* ``GET /registry`` — the run-registry rows over the backing store
  (``?kind=`` filters; see :mod:`repro.report.registry`).
* ``GET /report`` — the generated results report rendered straight from
  the backing store (``?format=md`` for markdown, HTML otherwise) —
  entirely cache-hit-backed, no recomputation.
* ``GET /healthz`` — liveness probe (always 200; ``state`` flips to
  ``degraded`` while the pool is rebuilding, the store is read-only, or
  admission control is rejecting).

Degradation contracts (see DESIGN.md "Fault model & degradation
contracts"): a full queue answers ``503`` with ``Retry-After`` instead of
queueing unboundedly; a job that outlives ``job_deadline_s`` is abandoned
by the watchdog (failed-with-error, waiters released, its worker thread
retired and replaced) rather than wedging a worker slot forever; rows a
dead process left ``running`` are re-queued by the same watchdog sweep.
No accepted job is ever silently lost: every submit ends done,
failed-with-error, or re-queued.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Mapping
from urllib.parse import parse_qs, urlsplit

from repro import faults
from repro.exceptions import ConfigurationError
from repro.serve.jobs import (JobSpec, execute_job, job_store_key, parse_job,
                              predict_priority)
from repro.serve.queue import PersistentJobQueue

__all__ = ["Job", "JobServer", "ServerBusyError", "serve_http"]

#: Completed jobs kept in memory for status queries; beyond this the
#: oldest finished records are dropped (their payloads live in the store
#: and their bookkeeping in the queue, so nothing is lost).
DONE_MEMO_LIMIT: int = 1024

#: ``Retry-After`` hint (seconds) sent with admission-control rejections.
DEFAULT_RETRY_AFTER_S: float = 1.0

#: Watchdog sweep period: deadline checks, orphan recovery, heartbeats.
DEFAULT_WATCHDOG_INTERVAL_S: float = 0.5


class ServerBusyError(RuntimeError):
    """Raised by :meth:`JobServer.submit` when admission control rejects.

    Carries the ``retry_after_s`` hint the HTTP layer turns into a
    ``Retry-After`` header on its 503 response.
    """

    def __init__(self, message: str, *, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


@dataclass
class Job:
    """In-memory record of one coalesced unit of work."""

    digest: str
    spec: JobSpec
    status: str = "queued"          # queued | running | done | failed
    provenance: str | None = None   # store | hit | miss | off
    payload: dict | None = None
    error: str | None = None
    done: threading.Event = field(default_factory=threading.Event)
    submitted_at: float = field(default_factory=time.time)
    finished_at: float | None = None

    def describe(self) -> dict:
        """JSON-safe status view (never includes the payload)."""
        return {"digest": self.digest, "job": self.spec.to_dict(),
                "status": self.status, "provenance": self.provenance,
                "error": self.error, "submitted_at": self.submitted_at,
                "finished_at": self.finished_at}


class JobServer:
    """Single-flight job broker over a :class:`ResultStore` and the fabric.

    Parameters
    ----------
    store:
        The :class:`~repro.sim.store.ResultStore` shared with the CLI.
    queue_path:
        SQLite file of the persistent queue; defaults to
        ``<store root>/serve-queue.sqlite`` so daemon state lives next to
        the results it indexes.
    workers:
        Worker threads executing queue claims.  Each claim runs one
        engine call, which fans out over the shared process pool itself,
        so a small thread count saturates the machine.
    max_queue_depth:
        Admission-control bound on in-flight (queued + running) jobs;
        ``None`` (the default) admits everything.  A submit that would
        exceed it raises :class:`ServerBusyError` (HTTP 503 +
        ``Retry-After``) — coalesce attaches and store hits are always
        admitted, they cost no queue slot.
    job_deadline_s:
        Per-job wall-clock deadline measured from claim time; ``None``
        disables it.  The watchdog abandons an over-deadline job: marks
        it failed, releases waiters, retires the (presumed hung) worker
        thread and spawns a replacement.
    watchdog_interval_s:
        Watchdog sweep period (deadline checks + orphan recovery).
    """

    def __init__(self, store, *, queue_path: str | Path | None = None,
                 workers: int = 2, max_queue_depth: int | None = None,
                 job_deadline_s: float | None = None,
                 watchdog_interval_s: float = DEFAULT_WATCHDOG_INTERVAL_S) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if job_deadline_s is not None and job_deadline_s <= 0:
            raise ConfigurationError(
                f"job_deadline_s must be positive, got {job_deadline_s}")
        if watchdog_interval_s <= 0:
            raise ConfigurationError(
                f"watchdog_interval_s must be positive, got {watchdog_interval_s}")
        self.store = store
        self.queue = PersistentJobQueue(
            queue_path if queue_path is not None
            else Path(store.root) / "serve-queue.sqlite")
        self.workers = workers
        self.max_queue_depth = max_queue_depth
        self.job_deadline_s = job_deadline_s
        self.watchdog_interval_s = watchdog_interval_s
        self._jobs: dict[str, Job] = {}
        self._cond = threading.Condition()
        self._threads: list[threading.Thread] = []
        self._watchdog_thread: threading.Thread | None = None
        self._watchdog_wake = threading.Event()  # see _watchdog
        self._stopping = False
        self._worker_seq = 0
        # digest -> (worker name, claim time): the watchdog's view of
        # in-flight work, also the exclude set for orphan recovery.
        self._active: dict[str, tuple[str, float]] = {}
        # worker name -> last loop heartbeat (observability; a worker hung
        # inside execute_job stops beating, which is what the deadline
        # sweep acts on via _active's claim times).
        self._heartbeats: dict[str, float] = {}
        # Digests the watchdog abandoned whose original worker may still
        # complete late; its result is then discarded, never double-counted.
        self._abandoned: set[str] = set()
        # Names of hung workers that were replaced; they exit at the top
        # of their next loop instead of claiming more work.
        self._retired: set[str] = set()
        self.requests = 0
        self.coalesced = 0
        self.store_hits = 0
        self.computed = 0
        self.failed = 0
        self.rejected = 0
        self.deadline_abandoned = 0
        self.late_completions = 0
        self.orphans_requeued = 0

    # ------------------------------------------------------------------
    def _spawn_worker_locked(self) -> None:
        """Start one worker thread (callers hold ``self._cond``)."""
        thread = threading.Thread(
            target=self._worker, daemon=True,
            name=f"repro-serve-worker-{self._worker_seq}")
        self._worker_seq += 1
        self._threads.append(thread)
        thread.start()

    def start(self) -> "JobServer":
        """Recover interrupted queue entries and start the worker pool."""
        with self._cond:
            if self._threads:
                return self
            self._stopping = False
            self._watchdog_wake.clear()
            requeued = self.queue.recover()
            if requeued:
                self._cond.notify_all()
            for _ in range(self.workers):
                self._spawn_worker_locked()
            self._watchdog_thread = threading.Thread(
                target=self._watchdog, daemon=True, name="repro-serve-watchdog")
            self._watchdog_thread.start()
        return self

    def stop(self) -> None:
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
            self._watchdog_wake.set()
            threads, self._threads = self._threads, []
            watchdog, self._watchdog_thread = self._watchdog_thread, None
        for thread in threads:
            thread.join(timeout=5.0)
        if watchdog is not None:
            watchdog.join(timeout=5.0)
        self.queue.close()

    def __enter__(self) -> "JobServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def submit(self, request: Mapping | JobSpec) -> Job:
        """Coalesce/serve/queue one request; returns its :class:`Job`.

        The returned job may already be finished (store hit or attach to
        a completed memo entry); callers that need the result use
        :meth:`wait`.
        """
        spec = request if isinstance(request, JobSpec) else parse_job(request)
        key = job_store_key(spec)
        digest = self.store.digest(key)
        with self._cond:
            self.requests += 1
            existing = self._jobs.get(digest)
            if existing is not None and existing.status in ("queued", "running"):
                self.coalesced += 1
                return existing
            payload = self.store.get(key, digest=digest)
            if payload is not None:
                self.store_hits += 1
                job = Job(digest=digest, spec=spec, status="done",
                          provenance="store", payload=payload,
                          finished_at=time.time())
                job.done.set()
                self._jobs[digest] = job
                self._prune_memo()
                return job
            # Miss (or previously failed — both re-enter the queue), so
            # this request needs a queue slot: admission control applies.
            if self.max_queue_depth is not None:
                inflight = self._inflight_locked()
                if inflight >= self.max_queue_depth:
                    self.rejected += 1
                    raise ServerBusyError(
                        f"queue full: {inflight} in-flight jobs at the "
                        f"max_queue_depth={self.max_queue_depth} bound",
                        retry_after_s=DEFAULT_RETRY_AFTER_S)
            job = Job(digest=digest, spec=spec)
            self._jobs[digest] = job
            self.queue.enqueue(digest, spec.to_dict(), predict_priority(spec))
            self._cond.notify()
            return job

    def _inflight_locked(self) -> int:
        """Queued + running jobs in memory (callers hold ``self._cond``)."""
        return sum(1 for job in self._jobs.values()
                   if job.status in ("queued", "running"))

    def wait(self, job: Job, timeout: float | None = None) -> Job:
        if not job.done.wait(timeout):
            raise TimeoutError(
                f"job {job.digest[:12]} still {job.status} after {timeout}s")
        return job

    def get(self, digest: str) -> Job | None:
        with self._cond:
            return self._jobs.get(digest)

    # ------------------------------------------------------------------
    def _worker(self) -> None:
        name = threading.current_thread().name
        while True:
            with self._cond:
                self._heartbeats[name] = time.time()
                if name in self._retired:
                    # Replaced by the watchdog while hung; a late result
                    # was already reconciled — do not claim more work.
                    self._retired.discard(name)
                    self._heartbeats.pop(name, None)
                    return
                claim = None if self._stopping else self.queue.claim()
                while claim is None and not self._stopping:
                    self._cond.wait(timeout=0.5)
                    self._heartbeats[name] = time.time()
                    claim = self.queue.claim()
                if self._stopping:
                    return
                digest, raw_spec = claim
                job = self._jobs.get(digest)
                if job is None:
                    # Recovered from a previous daemon's queue: nobody is
                    # waiting yet, but the work is owed.  A spec this
                    # process can no longer parse (schema drift, manual
                    # DB edits) fails the row instead of the thread.
                    try:
                        job = Job(digest=digest, spec=parse_job(raw_spec))
                    except Exception as error:  # noqa: BLE001
                        self.queue.fail(
                            digest, f"unparseable recovered job: {error}")
                        self.failed += 1
                        continue
                    self._jobs[digest] = job
                job.status = "running"
                # Claim and registration are one atomic step under the
                # lock, so the watchdog's recover(exclude=active) sweep
                # can never re-queue a job this worker just claimed.
                self._active[digest] = (name, time.time())
            try:
                payload, provenance = execute_job(job.spec, self.store)
            except Exception as error:  # noqa: BLE001 - served back to client
                with self._cond:
                    self._heartbeats[name] = time.time()
                    self._active.pop(digest, None)
                    if digest in self._abandoned:
                        self._abandoned.discard(digest)
                        self.late_completions += 1
                    else:
                        job.status = "failed"
                        job.error = f"{type(error).__name__}: {error}"
                        job.finished_at = time.time()
                        self.failed += 1
                        # Inside the lock: fail/finish must not interleave
                        # with a watchdog recover() between execute_job
                        # returning and the row being closed out, or a
                        # finished job could be re-queued (a duplicate
                        # computation).
                        self.queue.fail(digest, job.error)
            else:
                with self._cond:
                    self._heartbeats[name] = time.time()
                    self._active.pop(digest, None)
                    if digest in self._abandoned:
                        # The watchdog already failed this job and released
                        # its waiters; the late result is discarded (any
                        # store writes execute_job made are fine — they are
                        # byte-identical by the determinism contract).
                        self._abandoned.discard(digest)
                        self.late_completions += 1
                    else:
                        job.status = "done"
                        job.provenance = provenance
                        job.payload = payload
                        job.finished_at = time.time()
                        self.computed += 1
                        self._prune_memo()
                        self.queue.finish(digest, provenance)
            job.done.set()

    def _watchdog(self) -> None:
        """Deadline enforcement + orphan recovery, one sweep per interval.

        Sleeps on its own event, so a submit's ``notify()`` always wakes a
        worker.  Each sweep runs under ``self._cond``: workers close out
        finished jobs under the same lock, so a sweep can never observe
        (and re-queue) a job in the half-finished state.
        """
        while not self._watchdog_wake.wait(timeout=self.watchdog_interval_s):
            with self._cond:
                if self._stopping:
                    return
                now = time.time()
                if self.job_deadline_s is not None:
                    for digest, (worker, started) in list(self._active.items()):
                        if now - started < self.job_deadline_s:
                            continue
                        self._active.pop(digest, None)
                        self._abandoned.add(digest)
                        self._retired.add(worker)
                        error = (f"deadline exceeded: running for "
                                 f"{now - started:.2f}s against a "
                                 f"{self.job_deadline_s}s deadline")
                        job = self._jobs.get(digest)
                        if job is not None:
                            job.status = "failed"
                            job.error = error
                            job.finished_at = now
                            job.done.set()
                        self.deadline_abandoned += 1
                        self.failed += 1
                        self.queue.fail(digest, error)
                        # The hung worker is written off; keep capacity.
                        self._spawn_worker_locked()
                requeued = self.queue.recover(exclude=self._active.keys())
                if requeued:
                    self.orphans_requeued += requeued
                    self._cond.notify_all()

    def _prune_memo(self) -> None:
        """Bound the in-memory map (callers hold the lock)."""
        if len(self._jobs) <= DONE_MEMO_LIMIT:
            return
        finished = sorted(
            (job for job in self._jobs.values() if job.status in ("done", "failed")),
            key=lambda job: job.finished_at or 0.0)
        for job in finished[:len(self._jobs) - DONE_MEMO_LIMIT]:
            del self._jobs[job.digest]

    # ------------------------------------------------------------------
    def describe(self, digest: str) -> dict | None:
        """Status + provenance of a digest (memory first, then queue)."""
        job = self.get(digest)
        record = self.queue.get(digest)
        if job is None and record is None:
            return None
        view = job.describe() if job is not None else {
            "digest": digest, "job": record["spec"],
            "status": record["status"], "provenance": record["provenance"],
            "error": record["error"], "submitted_at": record["submitted_at"],
            "finished_at": record["finished_at"]}
        if record is not None:
            view["queue"] = {"attempts": record["attempts"],
                             "priority": record["priority"]}
        return view

    def health(self) -> dict:
        """Liveness + degradation state for ``/healthz``.

        The server stays *live* (``ok`` is always true while it answers at
        all); ``state`` turns ``degraded`` — with machine-readable reasons
        — when the fabric is mid pool-rebuild, the store has stopped
        accepting writes, or admission control is at its bound.  Load
        balancers should keep routing (requests still complete, slower);
        operators get the reason list.
        """
        from repro.sim.execution import fabric_stats

        reasons: list[str] = []
        if fabric_stats()["pool"].get("rebuilding"):
            reasons.append("fabric: process pool rebuilding")
        if getattr(self.store, "read_only", False):
            reasons.append("store: read-only (persistent write failures)")
        with self._cond:
            if (self.max_queue_depth is not None
                    and self._inflight_locked() >= self.max_queue_depth):
                reasons.append(
                    f"queue: saturated ({self._inflight_locked()}"
                    f"/{self.max_queue_depth})")
        return {"ok": True, "state": "degraded" if reasons else "ok",
                "reasons": reasons}

    def stats(self) -> dict:
        from repro.sim.execution import fabric_stats

        with self._cond:
            counters = {"requests": self.requests,
                        "coalesced": self.coalesced,
                        "store_hits": self.store_hits,
                        "computed": self.computed,
                        "failed": self.failed,
                        "rejected": self.rejected,
                        "deadline_abandoned": self.deadline_abandoned,
                        "late_completions": self.late_completions,
                        "orphans_requeued": self.orphans_requeued,
                        "inflight": self._inflight_locked()}
        served = counters["coalesced"] + counters["store_hits"]
        total = counters["requests"]
        counters["hit_or_coalesced_ratio"] = (served / total) if total else 0.0
        queue_counts = self.queue.counts()
        queue_counts["lock_retries"] = self.queue.lock_retries
        queue_counts["poisoned"] = self.queue.poisoned
        return {"serve": counters, "queue": queue_counts,
                "store": self.store.stats(), "fabric": fabric_stats(),
                "health": self.health()}


# ----------------------------------------------------------------------
class _NullWriter:
    """Swallows handler writes after an injected disconnect.

    ``BaseHTTPRequestHandler.finish`` flushes and closes ``wfile``
    unconditionally; substituting this sink keeps the teardown silent once
    the underlying socket is already gone.
    """

    closed = False

    def write(self, data) -> int:
        return len(data)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True


class _ServeHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP translation of the :class:`JobServer` API."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"
    # The headers and the body go out in separate sends; with Nagle on, a
    # kept-alive client waits out its delayed ACK (~40 ms) on every reply.
    disable_nagle_algorithm = True

    @property
    def jobs(self) -> JobServer:
        return self.server.job_server  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is the client's business, not stderr's

    # -- helpers -------------------------------------------------------
    def _reply(self, status: int, payload: dict,
               headers: dict[str, str] | None = None) -> None:
        self._reply_text(status, json.dumps(payload), "application/json", headers)

    def _reply_text(self, status: int, body: str, content_type: str,
                    headers: dict[str, str] | None = None) -> None:
        """Write one response; the ``http.reply`` fault hook runs first."""
        fault = faults.fire("http.reply")
        if fault is not None and fault.kind == "http_disconnect":
            # Drop the connection before any response bytes: the client
            # sees RemoteDisconnected/ECONNRESET and must retry.
            self.close_connection = True
            try:
                self.connection.close()
            except OSError:  # pragma: no cover - racing client close
                pass
            self.wfile = _NullWriter()
            return
        encoded = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib handler name
        parts = urlsplit(self.path)
        segments = [segment for segment in parts.path.split("/") if segment]
        if segments == ["healthz"]:
            return self._reply(200, self.jobs.health())
        if segments == ["stats"]:
            return self._reply(200, self.jobs.stats())
        if segments == ["registry"]:
            from repro.report.registry import RunRegistry

            store = self.jobs.store
            registry = getattr(store, "registry", None)
            if registry is None:
                # Cache on the store: RunRegistry subscribes to puts, and
                # one listener per request would pile up.
                registry = store.registry = RunRegistry(store)
            query = parse_qs(parts.query)
            kind = query.get("kind", [None])[0]
            rows = registry.rows(kind=kind)
            return self._reply(200, {"rows": rows, "count": len(rows)})
        if segments == ["report"]:
            from repro.report.render import load_bench, render_report

            rendered = render_report(self.jobs.store, bench=load_bench())
            fmt = parse_qs(parts.query).get("format", ["html"])[0]
            if fmt == "md":
                return self._reply_text(200, rendered["markdown"],
                                        "text/markdown; charset=utf-8")
            return self._reply_text(200, rendered["html"],
                                    "text/html; charset=utf-8")
        if len(segments) >= 2 and segments[0] == "jobs":
            digest = segments[1]
            view = self.jobs.describe(digest)
            if view is None:
                return self._reply(404, {"error": f"unknown job {digest!r}"})
            if len(segments) == 2:
                return self._reply(200, view)
            if segments[2:] == ["result"]:
                job = self.jobs.get(digest)
                if job is None or job.status != "done":
                    return self._reply(409, {"error": "job not finished",
                                             "status": view["status"]})
                return self._reply(200, {"digest": digest,
                                         "provenance": job.provenance,
                                         "result": job.payload})
        return self._reply(404, {"error": f"no route {parts.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler name
        parts = urlsplit(self.path)
        if [segment for segment in parts.path.split("/") if segment] != ["jobs"]:
            return self._reply(404, {"error": f"no route {parts.path!r}"})
        try:
            length = int(self.headers.get("Content-Length", "0"))
            request = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError) as error:
            return self._reply(400, {"error": f"bad request body: {error}"})
        query = parse_qs(parts.query)
        try:
            job = self.jobs.submit(request)
        except ConfigurationError as error:
            return self._reply(400, {"error": str(error)})
        except ServerBusyError as error:
            return self._reply(
                503, {"error": str(error), "retry_after_s": error.retry_after_s},
                headers={"Retry-After": f"{error.retry_after_s:g}"})
        if query.get("wait", ["0"])[-1] in ("1", "true", "yes"):
            timeout = float(query.get("timeout", ["300"])[-1])
            try:
                self.jobs.wait(job, timeout)
            except TimeoutError as error:
                return self._reply(504, {"error": str(error),
                                         **job.describe()})
        view = job.describe()
        if job.status == "done":
            view["result"] = job.payload
            return self._reply(200, view)
        if job.status == "failed":
            return self._reply(500, view)
        return self._reply(202, view)


class ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, job_server: JobServer) -> None:
        super().__init__(address, _ServeHandler)
        self.job_server = job_server


def serve_http(job_server: JobServer, host: str = "127.0.0.1",
               port: int = 0) -> ServeHTTPServer:
    """Bind the HTTP front end (``port=0`` picks an ephemeral port).

    The caller owns the loop: ``server.serve_forever()`` inline for a
    daemon, or in a thread for tests — and ``server.shutdown()`` +
    ``job_server.stop()`` to tear down.
    """
    job_server.start()
    return ServeHTTPServer((host, port), job_server)
