"""Coalescing correctness and lifecycle tests for the job server.

The deterministic single-flight battery exploits the server's split
between submission and execution: with the worker pool not yet started,
submissions pile up without racing the executor, so coalescing behaviour
is asserted exactly — then the pool starts and the queue drains.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

import repro.serve.server as server_mod
from repro.serve.jobs import execute_job, parse_job
from repro.serve.server import DONE_MEMO_LIMIT, Job, JobServer, serve_http
from repro.sim.store import ResultStore


def _server(tmp_path, **kwargs) -> JobServer:
    return JobServer(ResultStore(tmp_path / "store"),
                     queue_path=tmp_path / "queue.sqlite", **kwargs)


def _counting_get(monkeypatch):
    """Patch ResultStore.get with a call-recording delegate (digests)."""
    calls: list = []
    original = ResultStore.get

    def record(store, key, *, digest=None):
        calls.append(digest)
        return original(store, key, digest=digest)

    monkeypatch.setattr(ResultStore, "get", record)
    return calls


def _stored(server: JobServer, *requests) -> None:
    """Compute ``requests`` straight into the server's store."""
    for request in requests:
        execute_job(parse_job(request), server.store)


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
# Memo hits
# ---------------------------------------------------------------------------

def test_repeat_hit_is_answered_from_the_memo_without_a_store_read(
        tmp_path, monkeypatch):
    server = _server(tmp_path)
    request = {"kind": "figure", "name": "fig5"}
    _stored(server, request)
    gets = _counting_get(monkeypatch)
    try:
        first = server.submit(request)       # first touch reads the store
        assert first.provenance == "store"
        assert first.digest == server.store.digest(
            server_mod.job_store_key(first.spec))
        assert gets == [first.digest]
        assert server.store.stats()["hits"] == 1
        for count in (2, 3):
            repeat = server.submit(request)
            assert repeat is not first
            assert repeat.status == "done" and repeat.done.is_set()
            assert repeat.provenance == "store"
            assert repeat.payload is first.payload
            assert repeat.result_json is first.result_json
            assert repeat.result_json == json.dumps(first.payload)
            assert server.store_hits == count
        assert gets == [first.digest]        # no further store reads
        assert server.store.stats()["hits"] == 1
        assert server.queue.counts()["queued"] == 0
    finally:
        server.queue.close()


def test_repeat_of_a_computed_job_is_a_memo_hit(tmp_path, monkeypatch):
    calls = _counting_execute(monkeypatch)
    with _server(tmp_path) as server:
        request = {"kind": "figure", "name": "fig23"}
        computed = server.wait(server.submit(request), 60)
        assert computed.provenance == "miss"
        assert computed.result_json == json.dumps(computed.payload)
        gets = _counting_get(monkeypatch)
        repeat = server.submit(request)
        assert repeat.provenance == "store"
        assert repeat.result_json is computed.result_json
        assert gets == []
        assert len(calls) == 1
        assert server.stats()["serve"]["store_hits"] == 1


def test_memo_entry_with_a_different_key_is_not_served(tmp_path, monkeypatch):
    """A digest collision in the memo falls back to the store's check."""
    server = _server(tmp_path)
    request = {"kind": "figure", "name": "fig5"}
    _stored(server, request)
    spec = parse_job(request)
    digest = server.store.digest(server_mod.job_store_key(spec))
    with server._cond:
        server._jobs[digest] = Job(
            digest=digest, spec=spec, status="done", provenance="store",
            payload={"other": True}, result_json='{"other": true}',
            key_json='{"kind":"other"}', finished_at=time.time())
    gets = _counting_get(monkeypatch)
    try:
        job = server.submit(request)
        assert gets == [digest]
        assert job.provenance == "store"
        assert job.payload != {"other": True}
        assert job.result_json == json.dumps(job.payload)
        assert server.get(digest) is job
    finally:
        server.queue.close()


def test_a_slow_first_store_read_does_not_hold_the_server_lock(
        tmp_path, monkeypatch):
    server = _server(tmp_path)
    slow = {"kind": "figure", "name": "fig5"}
    hot = {"kind": "figure", "name": "fig23"}
    _stored(server, slow, hot)
    server.submit(hot)                       # now in the memo
    entered, release = threading.Event(), threading.Event()
    original = ResultStore.get

    def blocking_get(store, key, *, digest=None):
        entered.set()
        release.wait(30)
        return original(store, key, digest=digest)

    monkeypatch.setattr(ResultStore, "get", blocking_get)
    results: dict = {}
    blocked = threading.Thread(
        target=lambda: results.update(slow=server.submit(slow)))
    probe = threading.Thread(
        target=lambda: results.update(hot=server.submit(hot),
                                      stats=server.stats()))
    blocked.start()
    try:
        assert entered.wait(10)
        probe.start()
        probe.join(5)
        assert not probe.is_alive(), "memo hit waited on another digest's read"
        assert results["hot"].provenance == "store"
        assert results["stats"]["serve"]["store_hits"] == 2
        assert "slow" not in results
    finally:
        release.set()
        blocked.join(10)
        probe.join(10)
        server.queue.close()
    assert results["slow"].provenance == "store"
    assert server.store_hits == 3


def test_concurrent_first_touches_keep_single_flight(tmp_path, monkeypatch):
    """Racing submits across the unlocked store read: every request is
    counted once, and each missing digest is queued and computed once."""
    import sys

    calls = _counting_execute(monkeypatch)
    server = _server(tmp_path)
    stored = {"kind": "figure", "name": "fig5"}
    missing = [{"kind": "figure", "name": "fig23"},
               {"kind": "scenario", "name": "aloha-dense"}]
    _stored(server, stored)
    requests = [stored, *missing] * 8
    jobs: list[Job] = []
    lock = threading.Lock()

    def submit(request):
        job = server.submit(request)
        with lock:
            jobs.append(job)

    threads = [threading.Thread(target=submit, args=(request,))
               for request in requests]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(jobs) == server.requests == len(requests)
    assert server.store_hits == 8
    assert server.coalesced == len(requests) - 8 - len(missing)
    assert server.queue.counts()["queued"] == len(missing)
    try:
        server.start()
        for job in jobs:
            assert server.wait(job, 60).status == "done"
    finally:
        server.stop()
    assert sorted(spec.name for spec in calls) == ["aloha-dense", "fig23"]


# ---------------------------------------------------------------------------
# Address memo: each spec's key is built once per server
# ---------------------------------------------------------------------------

def _counting_key(monkeypatch):
    """Patch the server's job_store_key with a call-recording delegate."""
    calls: list = []
    original = server_mod.job_store_key

    def record(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(server_mod, "job_store_key", record)
    return calls


def _registered_requests():
    from repro.sim.experiments import FIGURE_DRIVERS
    from repro.sim.scenario import scenario_names
    from repro.sim.waveform_engine import sweep_names

    return ([{"kind": "figure", "name": name} for name in sorted(FIGURE_DRIVERS)]
            + [{"kind": "scenario", "name": name} for name in scenario_names()]
            + [{"kind": "waveform", "name": name} for name in sweep_names()])


def test_memoized_address_equals_the_store_key_of_every_template(tmp_path):
    from repro.utils.hashing import canonical_json

    templates = _registered_requests()
    assert len(templates) == 33
    variants = [dict(template, **extra) for template in templates
                for extra in ({}, {"seed": 7})]
    variants += [dict(template, seed=seed, shards=shards)
                 for template in templates if template["kind"] == "waveform"
                 for seed, shards in ((None, 1), (3, 2))]
    server = _server(tmp_path)           # no workers: misses stay queued
    try:
        for request in variants:
            spec = parse_job(request)
            job = server.submit(spec)
            key = server_mod.job_store_key(spec)
            assert server._addresses[spec] == (canonical_json(key),
                                               server.store.digest(key))
            assert job.digest == server.store.digest(key)
        assert len(server._addresses) == len(variants)
    finally:
        server.queue.close()


def test_repeat_submit_builds_no_key(tmp_path, monkeypatch):
    server = _server(tmp_path)
    request = {"kind": "figure", "name": "fig5"}
    _stored(server, request)
    keys = _counting_key(monkeypatch)
    try:
        first = server.submit(request)
        assert len(keys) == 1
        for _ in range(3):
            repeat = server.submit(request)
            assert repeat.provenance == "store"
            assert repeat.result_json is first.result_json
        assert len(keys) == 1
    finally:
        server.queue.close()


def test_pruned_job_rebuilds_its_key_for_the_store_read(tmp_path, monkeypatch):
    server = _server(tmp_path)
    request = {"kind": "figure", "name": "fig5"}
    _stored(server, request)
    first = server.submit(request)
    with server._cond:
        del server._jobs[first.digest]   # as _prune_memo would
    keys = _counting_key(monkeypatch)
    gets = _counting_get(monkeypatch)
    try:
        again = server.submit(request)
        assert len(keys) == 1
        assert gets == [first.digest]
        assert again.provenance == "store"
        assert again.payload == first.payload
    finally:
        server.queue.close()


def test_address_memo_is_bounded_oldest_first(tmp_path, monkeypatch):
    monkeypatch.setattr(server_mod, "DONE_MEMO_LIMIT", 4)
    monkeypatch.setattr(server_mod, "execute_job",
                        lambda spec, store: ({"seed": spec.seed}, "miss"))
    with _server(tmp_path) as server:
        specs = []
        for seed in range(9):
            job = server.wait(server.submit(
                {"kind": "scenario", "name": "aloha-dense", "seed": seed}), 60)
            assert job.payload == {"seed": seed}
            specs.append(job.spec)
        with server._cond:
            assert list(server._addresses) == specs[-4:]


def test_rejected_specs_leave_no_address(tmp_path, monkeypatch):
    from repro.exceptions import ConfigurationError
    from repro.sim.store import UncacheableError

    server = _server(tmp_path)
    try:
        with pytest.raises(ConfigurationError):
            server.submit({"kind": "figure", "name": "fig999"})

        def uncacheable(spec):
            raise UncacheableError("no stable encoding")

        monkeypatch.setattr(server_mod, "job_store_key", uncacheable)
        with pytest.raises(UncacheableError):
            server.submit({"kind": "figure", "name": "fig5"})
        assert server._addresses == {}
    finally:
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


def test_listen_backlog_admits_a_burst_of_connects(tmp_path):
    """Twenty connects to a daemon that accepts none all complete at once;
    a backlog of 5 admits six and stalls the rest past the timeout."""
    job_server = _server(tmp_path)
    httpd = serve_http(job_server)       # listening, but nothing accepts
    host, port = httpd.server_address[:2]
    connections = []
    try:
        for _ in range(20):
            connections.append(socket.create_connection((host, port),
                                                        timeout=0.4))
        assert len(connections) == 20
    finally:
        for connection in connections:
            connection.close()
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


def _raw_request(base_url: str, method: str, path: str,
                 body: bytes | None = None) -> tuple[int, bytes]:
    import http.client
    from urllib.parse import urlsplit

    address = urlsplit(base_url)
    connection = http.client.HTTPConnection(address.hostname, address.port,
                                            timeout=120)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


@pytest.mark.parametrize("request_", [
    {"kind": "figure", "name": "fig5"},
    {"kind": "scenario", "name": "aloha-dense"},
    {"kind": "waveform", "name": "modes"},
], ids=["figure", "scenario", "waveform"])
def test_http_result_bytes_equal_the_full_view_encoding(http_server, request_):
    """Spliced replies are byte-identical to encoding the whole view."""
    client, job_server = http_server
    body = json.dumps(request_).encode()
    for provenance in ("miss", "store"):     # computed, then a memo hit
        status, raw = _raw_request(client.base_url, "POST",
                                   "/jobs?wait=1&timeout=120", body)
        assert status == 200
        reply = json.loads(raw)
        assert list(reply)[-1] == "result"
        assert reply["provenance"] == provenance
        job = job_server.get(reply["digest"])
        view = {name: value for name, value in reply.items() if name != "result"}
        assert raw == json.dumps({**view, "result": job.payload}).encode()
        status, raw = _raw_request(client.base_url, "GET",
                                   f"/jobs/{job.digest}/result")
        assert status == 200
        assert raw == json.dumps({"digest": job.digest,
                                  "provenance": provenance,
                                  "result": job.payload}).encode()


@pytest.mark.parametrize("timeout", ["abc", "nan", "inf", "-1"])
def test_http_bad_timeout_is_rejected_before_queueing(http_server, timeout):
    client, job_server = http_server
    status, raw = _raw_request(
        client.base_url, "POST", f"/jobs?wait=1&timeout={timeout}",
        json.dumps({"kind": "figure", "name": "fig23"}).encode())
    assert status == 400
    assert "timeout" in json.loads(raw)["error"]
    assert job_server.requests == 0
    assert sum(job_server.queue.counts().values()) == 0


def test_http_no_wait_returns_202_then_completes(http_server):
    client, job_server = http_server
    reply = client.submit({"kind": "figure", "name": "fig23"}, wait=False)
    assert reply["status"] in ("queued", "running", "done")
    job = job_server.get(reply["digest"])
    job_server.wait(job, 60)
    assert client.status(reply["digest"])["status"] == "done"


def test_http_keep_alive_replies_are_not_delayed_by_nagle(http_server, monkeypatch):
    # A reply is one send, but a body longer than a segment ends in a short
    # one; with Nagle on, that tail waits out the client's delayed ACK
    # (~40 ms) on a kept-alive connection.
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


class _CountingWriter:
    """Records each write to a handler's unbuffered ``wfile``: one write
    is one ``sendall``."""

    def __init__(self, inner, sent: list[bytes]) -> None:
        self._inner, self._sent = inner, sent

    def write(self, data) -> int:
        self._sent.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_http_reply_leaves_in_one_send(http_server, monkeypatch):
    sends: list[list[bytes]] = []           # one list per connection
    setup = server_mod._ServeHandler.setup

    def recording_setup(handler):
        setup(handler)
        assert handler.wbufsize == 0        # unbuffered: write == sendall
        sends.append([])
        handler.wfile = _CountingWriter(handler.wfile, sends[-1])

    monkeypatch.setattr(server_mod._ServeHandler, "setup", recording_setup)
    client, _ = http_server
    body = json.dumps({"kind": "figure", "name": "fig5"}).encode()
    replies = [
        _raw_request(client.base_url, "POST", "/jobs?wait=1", body),  # miss
        _raw_request(client.base_url, "POST", "/jobs?wait=1", body),  # hit
        _raw_request(client.base_url, "GET", "/jobs/" + "f" * 64),    # 404
        _raw_request(client.base_url, "POST", "/jobs", b"{"),         # 400
    ]
    assert [status for status, _ in replies] == [200, 200, 404, 400]
    assert json.loads(replies[1][1])["provenance"] == "store"
    assert [len(sent) for sent in sends] == [1, 1, 1, 1]
    for sent, (_, raw) in zip(sends, replies):
        assert sent[0].startswith(b"HTTP/1.1 ") and sent[0].endswith(raw)


def test_http_negative_content_length_is_rejected_before_reading(http_server):
    import http.client
    from urllib.parse import urlsplit

    client, job_server = http_server
    address = urlsplit(client.base_url)
    connection = http.client.HTTPConnection(address.hostname, address.port,
                                            timeout=2)
    try:
        connection.putrequest("POST", "/jobs")
        connection.putheader("Content-Length", "-1")
        connection.endheaders()
        response = connection.getresponse()   # times out if the body is read
        assert response.status == 400
        assert "Content-Length" in json.loads(response.read())["error"]
    finally:
        connection.close()
    assert job_server.requests == 0


# ---------------------------------------------------------------------------
# Handler threads: each accepts and answers its own connections
# ---------------------------------------------------------------------------

def _handler_threads() -> set[threading.Thread]:
    return {thread for thread in threading.enumerate()
            if thread.name.startswith("repro-serve-http-")}


def _start(httpd) -> tuple[str, threading.Thread]:
    """Run ``httpd.serve_forever`` in a thread; return its URL and loop."""
    loop = threading.Thread(target=httpd.serve_forever, daemon=True)
    loop.start()
    return "http://%s:%d" % httpd.server_address[:2], loop


def _post_until_close(url: str, body: bytes) -> bytes:
    """One ``Connection: close`` POST, read until the server closes."""
    from urllib.parse import urlsplit

    address = urlsplit(url)
    with socket.create_connection((address.hostname, address.port),
                                  timeout=10) as sock:
        sock.sendall(b"POST /jobs?wait=1 HTTP/1.1\r\nHost: x\r\n"
                     b"Connection: close\r\nContent-Length: %d\r\n\r\n%s"
                     % (len(body), body))
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def test_sequential_hits_keep_at_most_two_handler_threads(tmp_path):
    """A client that waits for each close finds the last connection's
    thread counted idle again, so no third thread is ever started."""
    job_server = _server(tmp_path)
    before = _handler_threads()
    httpd = serve_http(job_server)
    url, _ = _start(httpd)
    body = json.dumps({"kind": "figure", "name": "fig23"}).encode()
    try:
        assert b'"provenance": "miss"' in _post_until_close(url, body)
        for _ in range(50):
            reply = _post_until_close(url, body)
            assert reply.startswith(b"HTTP/1.1 200 ")
            assert b'"provenance": "store"' in reply
        assert 1 <= len(_handler_threads() - before) <= 2
    finally:
        httpd.shutdown()
        httpd.server_close()
        job_server.stop()


def test_held_waits_do_not_starve_a_probe(tmp_path, monkeypatch):
    """Eight ``wait=1`` requests held on one job each keep a thread; a
    spare still accepts, so ``/healthz`` answers at once."""
    release = threading.Event()

    def gated(spec, store):
        release.wait(30)
        return execute_job(spec, store)

    monkeypatch.setattr(server_mod, "execute_job", gated)
    job_server = _server(tmp_path)
    httpd = serve_http(job_server)
    url, _ = _start(httpd)
    body = json.dumps({"kind": "figure", "name": "fig5"}).encode()
    statuses: list[int] = []

    def held():
        statuses.append(_raw_request(url, "POST", "/jobs?wait=1", body)[0])

    waiters = [threading.Thread(target=held) for _ in range(8)]
    try:
        for waiter in waiters:
            waiter.start()
        deadline = time.monotonic() + 10
        while job_server.requests < 8 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert job_server.requests == 8 and job_server.coalesced == 7
        started = time.perf_counter()
        status, raw = _raw_request(url, "GET", "/healthz")
        assert status == 200 and json.loads(raw)["ok"] is True
        assert time.perf_counter() - started < 1.0
        release.set()
        for waiter in waiters:
            waiter.join(60)
        assert statuses == [200] * 8
    finally:
        release.set()
        httpd.shutdown()
        httpd.server_close()
        job_server.stop()


def test_accept_error_keeps_the_server_answering(tmp_path, monkeypatch):
    job_server = _server(tmp_path)
    httpd = serve_http(job_server)
    accept = httpd.get_request
    calls: list[int] = []

    def aborting_once():
        calls.append(1)
        if len(calls) == 1:
            raise ConnectionAbortedError("injected ECONNABORTED")
        return accept()

    monkeypatch.setattr(httpd, "get_request", aborting_once)
    url, _ = _start(httpd)
    try:
        for _ in range(3):
            assert _raw_request(url, "GET", "/healthz")[0] == 200
        assert len(calls) >= 4
    finally:
        httpd.shutdown()
        httpd.server_close()
        job_server.stop()


def test_idle_count_survives_concurrent_connections(tmp_path):
    """Sixteen clients under a short switch interval: once they are done,
    every live handler thread is counted idle (a lost update to the count
    would leave it off for good)."""
    import sys

    job_server = _server(tmp_path)
    before = _handler_threads()
    httpd = serve_http(job_server)
    url, _ = _start(httpd)
    statuses: list[int] = []

    def client():
        for _ in range(10):
            statuses.append(_raw_request(url, "GET", "/healthz")[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client) for _ in range(16)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(60)
        assert not any(thread.is_alive() for thread in clients)
        assert statuses == [200] * 160
        deadline = time.monotonic() + 5
        while (httpd._idle != len(_handler_threads() - before)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert httpd._idle == len(_handler_threads() - before) >= 1
    finally:
        sys.setswitchinterval(interval)
        httpd.shutdown()
        httpd.server_close()
        job_server.stop()


@pytest.mark.parametrize("teardown", ["shutdown", "server_close"])
def test_no_handler_thread_outlives_the_server(tmp_path, teardown):
    """``shutdown()`` + ``server_close()`` and ``server_close()`` alone
    (the CLI's path) both wake every thread blocked in ``accept()``."""
    job_server = _server(tmp_path)
    before = _handler_threads()
    httpd = serve_http(job_server)
    url, loop = _start(httpd)
    try:
        for _ in range(5):
            assert _raw_request(url, "GET", "/healthz")[0] == 200
        threads = (_handler_threads() - before) | {loop}
        assert len(threads) >= 2
        if teardown == "shutdown":
            httpd.shutdown()
        httpd.server_close()
        deadline = time.monotonic() + 1.0
        while any(thread.is_alive() for thread in threads) \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [thread for thread in threads if thread.is_alive()] == []
    finally:
        httpd.server_close()
        job_server.stop()


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
