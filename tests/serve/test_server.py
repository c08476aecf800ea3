"""Coalescing correctness and lifecycle tests for the job server.

The deterministic single-flight battery exploits the server's split
between submission and execution: with the worker pool not yet started,
submissions pile up without racing the executor, so coalescing behaviour
is asserted exactly — then the pool starts and the queue drains.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

import repro.serve.server as server_mod
from repro.serve.jobs import execute_job
from repro.serve.server import DONE_MEMO_LIMIT, Job, JobServer, serve_http
from repro.sim.store import ResultStore


def _server(tmp_path, **kwargs) -> JobServer:
    return JobServer(ResultStore(tmp_path / "store"),
                     queue_path=tmp_path / "queue.sqlite", **kwargs)


def _counting_execute(monkeypatch):
    """Patch the server's execute_job with a call-recording delegate."""
    calls: list = []

    def record(spec, store):
        calls.append(spec)
        return execute_job(spec, store)

    monkeypatch.setattr(server_mod, "execute_job", record)
    return calls


# ---------------------------------------------------------------------------
# Single-flight coalescing
# ---------------------------------------------------------------------------

def test_identical_concurrent_requests_coalesce_to_one_dispatch(
        tmp_path, monkeypatch):
    """M identical requests -> exactly 1 computation, M byte-identical
    payloads equal to the one-shot CLI result (ISSUE satellite #4)."""
    from repro.sim.experiments import FIGURE_DRIVERS

    calls = _counting_execute(monkeypatch)
    server = _server(tmp_path)
    request = {"kind": "figure", "name": "fig5"}
    jobs: list[Job] = []
    lock = threading.Lock()

    def submit():
        job = server.submit(request)
        with lock:
            jobs.append(job)

    threads = [threading.Thread(target=submit) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len({id(job) for job in jobs}) == 1  # all attached to one flight
    assert server.coalesced == 7
    assert server.queue.counts()["queued"] == 1
    try:
        server.start()
        payloads = [json.dumps(server.wait(job, 60).payload, sort_keys=True)
                    for job in jobs]
        ratio = server.stats()["serve"]["hit_or_coalesced_ratio"]
    finally:
        server.stop()
    assert len(calls) == 1
    one_shot = json.dumps(FIGURE_DRIVERS["fig5"]().to_dict(), sort_keys=True)
    assert all(payload == one_shot for payload in payloads)
    assert ratio == pytest.approx(7 / 8)


def test_distinct_seeds_never_coalesce(tmp_path, monkeypatch):
    calls = _counting_execute(monkeypatch)
    server = _server(tmp_path)
    first = server.submit({"kind": "scenario", "name": "aloha-dense",
                           "seed": 1})
    second = server.submit({"kind": "scenario", "name": "aloha-dense",
                            "seed": 2})
    assert first is not second
    assert first.digest != second.digest
    assert server.coalesced == 0
    try:
        server.start()
        server.wait(first, 60)
        server.wait(second, 60)
    finally:
        server.stop()
    assert len(calls) == 2
    assert first.payload != second.payload


def test_repeat_request_is_a_store_hit_not_a_recompute(tmp_path, monkeypatch):
    calls = _counting_execute(monkeypatch)
    with _server(tmp_path) as server:
        request = {"kind": "figure", "name": "fig5"}
        first = server.wait(server.submit(request), 60)
        second = server.submit(request)
        assert second.status == "done"
        assert second.provenance == "store"
        assert second.payload == first.payload
        assert len(calls) == 1
        assert server.store_hits == 1


def test_failed_job_is_not_cached_and_is_rerunnable(tmp_path, monkeypatch):
    attempts: list = []

    def flaky(spec, store):
        attempts.append(spec)
        if len(attempts) == 1:
            raise RuntimeError("transient engine failure")
        return execute_job(spec, store)

    monkeypatch.setattr(server_mod, "execute_job", flaky)
    with _server(tmp_path) as server:
        request = {"kind": "figure", "name": "fig5"}
        failed = server.wait(server.submit(request), 60)
        assert failed.status == "failed"
        assert "transient engine failure" in failed.error
        assert failed.payload is None
        assert server.store.stats()["entries"] == 0  # failure never cached
        assert server.queue.get(failed.digest)["status"] == "failed"

        retried = server.wait(server.submit(request), 60)
        assert retried is not failed
        assert retried.status == "done"
        assert retried.provenance == "miss"
        assert len(attempts) == 2
        assert server.failed == 1 and server.computed == 1


def test_queue_priority_orders_cheap_jobs_first(tmp_path, monkeypatch):
    """With a warmed cost model, the cheaper of two queued jobs runs first."""
    from repro.sim.execution import get_cost_model, reset_cost_model

    reset_cost_model()
    model = get_cost_model()
    model.observe("artefact:fig5", 1.0, 5.0)     # "expensive"
    model.observe("artefact:fig23", 1.0, 0.001)  # "cheap"
    order = []

    def record(spec, store):
        order.append(spec.name)
        return execute_job(spec, store)

    monkeypatch.setattr(server_mod, "execute_job", record)
    server = _server(tmp_path, workers=1)
    slow = server.submit({"kind": "figure", "name": "fig5"})
    fast = server.submit({"kind": "figure", "name": "fig23"})
    try:
        server.start()
        server.wait(slow, 60)
        server.wait(fast, 60)
    finally:
        server.stop()
        reset_cost_model()
    assert order == ["fig23", "fig5"]


def test_restart_recovers_interrupted_queue_rows(tmp_path):
    """Work claimed by a dead daemon is owed — and re-run on restart."""
    first = _server(tmp_path)
    job = first.submit({"kind": "figure", "name": "fig5"})
    first.queue.claim()  # simulate: a worker took it, then the process died
    assert first.queue.counts()["running"] == 1
    first.queue.close()

    second = _server(tmp_path)
    try:
        second.start()
        deadline = time.time() + 30
        while time.time() < deadline:
            record = second.queue.get(job.digest)
            if record["status"] == "done":
                break
            time.sleep(0.05)
        assert second.queue.get(job.digest)["status"] == "done"
        # and the result is now a store hit for everyone
        attached = second.submit({"kind": "figure", "name": "fig5"})
        assert attached.status == "done"
    finally:
        second.stop()


def test_every_enqueued_job_wakes_a_worker(tmp_path, monkeypatch):
    """A submit's single notify() must reach an idle worker.

    With the watchdog sweeping every 50 ms it is nearly always asleep; if
    it slept on the workers' condition, the notify could wake it instead
    and the job would wait out a worker's 0.5 s poll.
    """
    monkeypatch.setattr(server_mod, "execute_job",
                        lambda spec, store: ({"seed": spec.seed}, "computed"))
    elapsed = []
    with _server(tmp_path, watchdog_interval_s=0.05) as server:
        time.sleep(0.1)  # workers and watchdog reach their waits
        for seed in range(20):
            job = server.submit({"kind": "scenario", "name": "aloha-dense",
                                 "seed": seed})
            started = time.perf_counter()
            server.wait(job, 5)
            elapsed.append(time.perf_counter() - started)
            assert job.status == "done"
    assert max(elapsed) < 0.1, [f"{s * 1e3:.0f} ms" for s in elapsed]


def test_done_memo_is_bounded(tmp_path):
    server = _server(tmp_path)
    spec = server.submit({"kind": "figure", "name": "fig5"}).spec
    with server._cond:
        for index in range(DONE_MEMO_LIMIT + 50):
            digest = f"{index:064d}"
            job = Job(digest=digest, spec=spec, status="done",
                      finished_at=float(index))
            server._jobs[digest] = job
        server._prune_memo()
        assert len(server._jobs) <= DONE_MEMO_LIMIT
        # the still-queued real submission is never pruned
        assert any(job.status == "queued" for job in server._jobs.values())
    server.queue.close()


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------

@pytest.fixture
def http_server(tmp_path):
    from repro.serve.client import ServeClient

    job_server = _server(tmp_path)
    httpd = serve_http(job_server)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    try:
        yield ServeClient(f"http://{host}:{port}"), job_server
    finally:
        httpd.shutdown()
        httpd.server_close()
        job_server.stop()


def test_http_submit_wait_status_result_round_trip(http_server):
    client, job_server = http_server
    assert client.healthz()
    reply = client.submit({"kind": "figure", "name": "fig5"}, wait=True,
                          timeout=60)
    assert reply["status"] == "done"
    assert reply["provenance"] == "miss"
    assert reply["result"]["title"]
    digest = reply["digest"]
    status = client.status(digest)
    assert status["status"] == "done"
    assert status["queue"]["attempts"] == 1
    result = client.result(digest)
    assert result["result"] == reply["result"]
    stats = client.stats()
    assert stats["serve"]["requests"] == 1
    assert stats["queue"]["done"] == 1


def test_http_rejects_bad_jobs_and_unknown_digests(http_server):
    from repro.serve.client import ServeError

    client, _ = http_server
    with pytest.raises(ServeError) as bad_job:
        client.submit({"kind": "figure", "name": "not-a-figure"})
    assert bad_job.value.status == 400
    with pytest.raises(ServeError) as missing:
        client.status("f" * 64)
    assert missing.value.status == 404


def test_http_no_wait_returns_202_then_completes(http_server):
    client, job_server = http_server
    reply = client.submit({"kind": "figure", "name": "fig23"}, wait=False)
    assert reply["status"] in ("queued", "running", "done")
    job = job_server.get(reply["digest"])
    job_server.wait(job, 60)
    assert client.status(reply["digest"])["status"] == "done"


def test_http_keep_alive_replies_are_not_delayed_by_nagle(http_server, monkeypatch):
    # Headers and body leave in two sends; with Nagle on, every reply on a
    # kept-alive connection waits out the client's delayed ACK (~40 ms).
    import http.client
    import socket
    from urllib.parse import urlsplit

    nodelay: list[int] = []
    setup = server_mod._ServeHandler.setup

    def recording_setup(handler):
        setup(handler)
        nodelay.append(handler.connection.getsockopt(socket.IPPROTO_TCP,
                                                     socket.TCP_NODELAY))

    monkeypatch.setattr(server_mod._ServeHandler, "setup", recording_setup)
    client, _ = http_server
    address = urlsplit(client.base_url)
    connection = http.client.HTTPConnection(address.hostname, address.port,
                                            timeout=10)
    try:
        started = time.perf_counter()
        for _ in range(10):
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())
        elapsed = time.perf_counter() - started
    finally:
        connection.close()
    assert len(nodelay) == 1 and nodelay[0] != 0  # one kept-alive socket
    assert elapsed < 0.3, f"10 kept-alive /healthz took {elapsed:.3f} s"


# ---------------------------------------------------------------------------
# Admission control, watchdog deadlines, fault injection
# ---------------------------------------------------------------------------

@pytest.fixture(autouse=True)
def _no_fault_plan():
    from repro import faults

    faults.clear()
    yield
    faults.clear()


def test_server_rejects_bad_robustness_knobs(tmp_path):
    from repro.exceptions import ConfigurationError

    for kwargs in ({"max_queue_depth": 0}, {"job_deadline_s": 0.0},
                   {"watchdog_interval_s": 0.0}):
        with pytest.raises(ConfigurationError):
            _server(tmp_path, **kwargs)


def test_admission_control_rejects_then_recovers(tmp_path):
    server = _server(tmp_path, max_queue_depth=1)
    first = server.submit({"kind": "figure", "name": "fig5"})
    with pytest.raises(server_mod.ServerBusyError) as busy:
        server.submit({"kind": "figure", "name": "fig23"})
    assert busy.value.retry_after_s > 0
    assert server.rejected == 1
    # coalesce attaches bypass admission: no new queue slot is needed
    assert server.submit({"kind": "figure", "name": "fig5"}) is first
    health = server.health()
    assert health["ok"] is True              # saturated, but still live
    assert health["state"] == "degraded"
    assert any("saturated" in reason for reason in health["reasons"])
    try:
        server.start()
        server.wait(first, 60)
        second = server.wait(server.submit({"kind": "figure",
                                            "name": "fig23"}), 60)
        assert second.status == "done"       # capacity came back
        assert server.health()["state"] == "ok"
    finally:
        server.stop()


def test_http_admission_rejection_carries_retry_after(tmp_path, monkeypatch):
    from repro.serve.client import ServeClient, ServeError

    # gate the worker so the first job deterministically holds the single
    # admission slot, however fast the figure computes on a warm process
    release = threading.Event()

    def gated(spec, store):
        release.wait(30)
        return execute_job(spec, store)

    monkeypatch.setattr(server_mod, "execute_job", gated)
    job_server = _server(tmp_path, max_queue_depth=1)
    httpd = serve_http(job_server)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    host, port = httpd.server_address[:2]
    try:
        raw = ServeClient(f"http://{host}:{port}", retries=0)
        raw.submit({"kind": "figure", "name": "fig5"}, wait=False)
        with pytest.raises(ServeError) as busy:
            raw.submit({"kind": "figure", "name": "fig23"}, wait=False)
        assert busy.value.status == 503
        assert busy.value.payload["retry_after_s"] > 0
        # a retrying client rides the 503 out once the slot frees up
        release.set()
        patient = ServeClient(f"http://{host}:{port}", retries=10,
                              jitter_seed=1)
        reply = patient.submit({"kind": "figure", "name": "fig23"},
                               wait=True, timeout=60)
        assert reply["status"] == "done"
    finally:
        release.set()
        httpd.shutdown()
        httpd.server_close()
        job_server.stop()


def test_watchdog_abandons_hung_jobs_and_replaces_the_worker(
        tmp_path, monkeypatch):
    release = threading.Event()
    calls: list = []

    def hanging_once(spec, store):
        calls.append(spec)
        if len(calls) == 1:
            release.wait(30)   # a hung engine: deadlocked import, runaway job
        return execute_job(spec, store)

    monkeypatch.setattr(server_mod, "execute_job", hanging_once)
    server = _server(tmp_path, workers=1, job_deadline_s=0.3,
                     watchdog_interval_s=0.05)
    request = {"kind": "figure", "name": "fig23"}
    job = server.submit(request)
    try:
        server.start()
        abandoned = server.wait(job, 15)     # released by the watchdog
        assert abandoned.status == "failed"
        assert "deadline exceeded" in abandoned.error
        assert server.deadline_abandoned == 1
        assert server.queue.get(job.digest)["status"] == "failed"
        # the hung worker finishes late; its result must be discarded
        release.set()
        deadline = time.time() + 10
        while server.late_completions < 1 and time.time() < deadline:
            time.sleep(0.02)
        assert server.late_completions == 1
        assert server.get(job.digest).status == "failed"  # still failed
        # the late result was discarded from the job view, but its store
        # write is benign (byte-identical by the determinism contract), so
        # the resubmit is served instantly — by the replacement worker's
        # server, without another computation
        retried = server.wait(server.submit(request), 60)
        assert retried is not job and retried.status == "done"
        assert retried.provenance == "store"
        assert len(calls) == 1
    finally:
        release.set()
        server.stop()


def test_injected_http_disconnect_is_ridden_out_by_client_retry(tmp_path):
    from repro import faults
    from repro.faults import FaultPlan, FaultSpec
    from repro.serve.client import ServeClient

    job_server = _server(tmp_path)
    httpd = serve_http(job_server)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    host, port = httpd.server_address[:2]
    try:
        client = ServeClient(f"http://{host}:{port}", retries=3,
                             jitter_seed=0)
        plan = FaultPlan(specs=(
            FaultSpec(kind="http_disconnect", site="http.reply", at=(0,)),))
        with faults.inject(plan):
            assert client.healthz() is True   # first reply dropped mid-flight
        assert client.retries_used == 1
        assert plan.stats()["fired"] == {"http.reply:http_disconnect": 1}
    finally:
        httpd.shutdown()
        httpd.server_close()
        job_server.stop()


def test_http_registry_endpoint_lists_store_rows(http_server):
    client, job_server = http_server
    client.submit({"kind": "figure", "name": "fig5"}, wait=True, timeout=60)
    reply = client.registry()
    assert reply["count"] == 1
    row = reply["rows"][0]
    assert row["kind"] == "figure-driver"
    assert row["name"] == "fig5"
    assert row["digest"]
    assert client.registry(kind="scenario") == {"rows": [], "count": 0}
    # Repeated requests reuse one registry instance cached on the store —
    # a fresh RunRegistry per request would stack put listeners forever.
    client.registry()
    assert len(job_server.store._put_listeners) == 1


def test_http_report_endpoint_renders_html_and_markdown(http_server):
    from urllib.request import urlopen

    client, _ = http_server
    client.submit({"kind": "figure", "name": "fig5"}, wait=True, timeout=60)
    with urlopen(client.base_url + "/report") as reply:
        assert reply.headers["Content-Type"].startswith("text/html")
        html = reply.read().decode()
    assert "fig5" in html
    assert "<svg" in html
    with urlopen(client.base_url + "/report?format=md") as reply:
        assert reply.headers["Content-Type"].startswith("text/markdown")
        markdown = reply.read().decode()
    assert "fig5" in markdown
