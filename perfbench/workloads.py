"""The three workloads, driven through the user's own entry points.

* ``cli-oneshot`` — fresh ``python -m repro ...`` processes, one per command.
* ``serve-hot`` — a closed loop of up to ``nproc`` HTTP clients replaying a
  zipf mix of store-resident jobs against a ``repro serve run`` daemon.
* ``serve-miss`` — one sequential HTTP client whose every request carries
  its own seed, so every request computes.

Every workload returns a :class:`Outcome`: end-to-end metrics, the detailed
figures the report prints, correctness problems, and sample counts.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from statistics import median

from perfstats import LatencyLog

#: Client-side timeout of one HTTP request; a failed request counts at it.
CLIENT_TIMEOUT_S = 30.0
#: Setup repetitions whose median is ``setup_s`` (untraced runs).
SETUP_REPS = 3
#: Zipf exponent of the ``serve-hot`` popularity mix.
ZIPF_ALPHA = 1.1
#: Fixed seed of the template popularity ranking, so every workload seed
#: replays the same mix distribution and only the request sequence varies.
RANKING_SEED = 1101
#: Symbols per grid cell of the ``cli-oneshot`` waveform sweep: compute is
#: then about twice the ~1 s import cost.
WAVEFORM_SYMBOLS = 1536
#: ``cli-oneshot`` runs at least this many passes, so each command's median
#: is taken over three wall times even when a pass outlasts ``--seconds / 3``.
MIN_PASSES = 3
#: The last ``serve-miss`` round keeps measuring past its share of
#: ``--seconds`` until the pooled p90 is supported (at least 10 samples
#: beyond it), up to this many times its share.
MISS_MAX_STRETCH = 6.0

_LISTENING = re.compile(rb"listening on http://([0-9.]+):([0-9]+)")


@dataclass
class Context:
    """Where a workload runs and how it launches the program."""

    root: Path
    work: Path
    seed: int
    seconds: float
    trace_dir: Path | None = None
    tracer: object = None  # the benchmark process's own Tracer when tracing

    @property
    def env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env.pop("REPRO_FAULT_PLAN", None)
        env.pop("REPRO_STORE_DIR", None)
        return env

    def repro(self, *args: str) -> list[str]:
        if self.trace_dir is not None:
            return [sys.executable, str(self.root / "perfbench" / "launch.py"),
                    str(self.trace_dir), *args]
        return [sys.executable, "-m", "repro", *args]

    def span(self, name: str, **attrs):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, **attrs)


@dataclass
class Outcome:
    metrics: dict[str, float]
    details: dict[str, object] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    runs: int = 0
    samples: dict[str, int] = field(default_factory=dict)
    serve_delta: dict[str, float] = field(default_factory=dict)
    client_requests: list[tuple] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    returncode: int
    wall_s: float
    maxrss_kb: int
    stdout: bytes


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _reap(pid: int, timeout_s: float) -> tuple[int, int]:
    """Wait for ``pid``; returns (returncode, maxrss kB).  Kills on timeout."""
    timer = threading.Timer(timeout_s, _kill_group, args=(pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    _kill_group(pid)  # leftover grandchildren of the process group
    return os.waitstatus_to_exitcode(status), int(usage.ru_maxrss)


def run_child(ctx: Context, args: list[str], log_name: str,
              timeout_s: float = 170.0) -> Child:
    """Run one command to completion; stdout is captured through a file."""
    out_path = ctx.work / "logs" / f"{log_name}.out"
    err_path = ctx.work / "logs" / f"{log_name}.err"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        process = subprocess.Popen(args, cwd=ctx.work, env=ctx.env, stdout=out,
                                   stderr=err, stdin=subprocess.DEVNULL,
                                   start_new_session=True)
        returncode, maxrss = _reap(process.pid, timeout_s)
        wall = time.perf_counter() - started
    process.returncode = returncode
    return Child(returncode, wall, maxrss, out_path.read_bytes())


class Daemon:
    """A ``repro serve run`` subprocess on an ephemeral port."""

    def __init__(self, ctx: Context, store_dir: Path, log_name: str) -> None:
        self.ctx = ctx
        self.store_dir = store_dir
        self.err_path = ctx.work / "logs" / f"{log_name}.err"
        self.process: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0
        self.maxrss_kb = 0

    def start(self, timeout_s: float = 90.0) -> "Daemon":
        self.err_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.err_path, "wb") as err:
            self.process = subprocess.Popen(
                self.ctx.repro("serve", "run", "--port", "0",
                               "--store-dir", str(self.store_dir)),
                cwd=self.ctx.work, env=self.ctx.env, stdout=subprocess.DEVNULL,
                stderr=err, stdin=subprocess.DEVNULL, start_new_session=True)
        deadline = time.monotonic() + timeout_s
        while True:
            match = _LISTENING.search(self.err_path.read_bytes())
            if match:
                self.host, self.port = match.group(1).decode(), int(match.group(2))
                break
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"daemon did not start: {self.err_path.read_text()!r}")
            time.sleep(0.005)
        while self.get("/healthz")[0] != 200:
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("daemon never answered /healthz")
            time.sleep(0.005)
        return self

    def get(self, path: str) -> tuple[int, dict]:
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=CLIENT_TIMEOUT_S)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        except (OSError, http.client.HTTPException, ValueError):
            return 0, {}
        finally:
            connection.close()

    def stop(self) -> None:
        """SIGINT (the daemon shuts down cleanly), then reap; kill on timeout."""
        if self.process is None or self.process.returncode is not None:
            return
        try:
            os.kill(self.process.pid, signal.SIGINT)
        except ProcessLookupError:
            pass
        returncode, self.maxrss_kb = _reap(self.process.pid, 30.0)
        self.process.returncode = returncode


# ---------------------------------------------------------------------------
# HTTP client
# ---------------------------------------------------------------------------

@dataclass
class Reply:
    ok: bool
    latency_s: float
    status: int = 0
    provenance: str | None = None
    payload_sha: str | None = None
    nbytes: int = 0
    error: str | None = None


_RESULT_MARK = b', "result": '


def parse_reply(status: int, body: bytes, latency_s: float) -> Reply:
    """Split a ``POST /jobs?wait=1`` reply into its status view and payload.

    The daemon writes the payload as the last member (``"result"``) of the
    JSON reply, so the bytes after that member name are exactly the
    payload's JSON encoding; their hash is compared across replies and
    against an in-process computation of the same job.
    """
    if status != 200:
        return Reply(False, latency_s, status, nbytes=len(body),
                     error=body[:200].decode("utf-8", "replace"))
    mark = body.find(_RESULT_MARK, max(body.find(b'"finished_at": '), 0))
    if mark < 0 or not body.endswith(b"}"):
        return Reply(False, latency_s, status, nbytes=len(body), error="no result")
    try:
        view = json.loads(body[:mark] + b"}")
    except ValueError as error:
        return Reply(False, latency_s, status, nbytes=len(body), error=str(error))
    payload = body[mark + len(_RESULT_MARK):-1]
    return Reply(view.get("status") == "done", latency_s, status,
                 provenance=view.get("provenance"),
                 payload_sha=hashlib.sha1(payload).hexdigest(), nbytes=len(body))


class Client:
    """Submits jobs with ``wait=1``, one connection per request.

    That is the pattern of ``repro.serve.client`` (urllib sends
    ``Connection: close``).  The daemon writes a reply's headers and body
    in two sends without ``TCP_NODELAY``, so on a kept-alive connection
    each reply waits out the client's delayed ACK (about 40 ms).
    """

    def __init__(self, host: str, port: int, timeout_s: float = CLIENT_TIMEOUT_S) -> None:
        self.host, self.port, self.timeout_s = host, port, timeout_s

    def submit(self, job: dict, request_id: str) -> Reply:
        body = json.dumps(job).encode()
        headers = {"Content-Type": "application/json", "Connection": "close",
                   "X-Request-Id": request_id}
        started = time.perf_counter()
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=self.timeout_s)
        try:
            connection.request("POST", f"/jobs?wait=1&timeout={self.timeout_s:g}",
                               body=body, headers=headers)
            response = connection.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as error:
            return Reply(False, time.perf_counter() - started, error=repr(error))
        finally:
            connection.close()
        return parse_reply(status, data, time.perf_counter() - started)


# ---------------------------------------------------------------------------
# Job catalogue and in-process references
# ---------------------------------------------------------------------------

def _import_repro(root: Path):
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro.serve.jobs as jobs

    return jobs


def catalogue(root: Path) -> dict[str, list[str]]:
    """Registered figure artefacts, scenarios and waveform sweeps."""
    _import_repro(root)
    from repro.sim.experiments import FIGURE_DRIVERS
    from repro.sim.scenario import scenario_names
    from repro.sim.waveform_engine import sweep_names

    return {"figure": list(FIGURE_DRIVERS), "scenario": list(scenario_names()),
            "waveform": list(sweep_names())}


def seeded_figures(root: Path) -> list[str]:
    """Figure artefacts whose result depends on a seed, minus ``waveform_*``.

    The ``waveform_*`` artefacts run ``run_sweep(shards=1)``, which seeds
    the cost model's ``waveform:batch:reference`` estimate; an auto-sharded
    sweep that then beats its prediction stores a 0.0 s dispatch overhead
    and every later auto-sharded sweep in that daemon raises
    ZeroDivisionError in ``CostModel.recommend_shards``.
    """
    import inspect

    _import_repro(root)
    from repro.sim.experiments import FIGURE_DRIVERS

    return [name for name, fn in FIGURE_DRIVERS.items()
            if "random_state" in inspect.signature(fn).parameters
            and not name.startswith("waveform_")]


def reference_sha(root: Path, job: dict) -> str:
    """Hash of the payload ``execute_job`` computes in-process, with no store.

    Waveform payloads record the shard count the cost model chose, so each
    is computed with a cold cost model, as a fresh daemon computes it.
    """
    jobs = _import_repro(root)
    from repro.sim.execution import reset_cost_model

    spec = jobs.parse_job(job)
    if spec.kind == "waveform":
        reset_cost_model()
    payload, _ = jobs.execute_job(spec, None)
    return hashlib.sha1(json.dumps(payload).encode()).hexdigest()


def _shutdown_fabric() -> None:
    if "repro.sim.execution" in sys.modules:
        sys.modules["repro.sim.execution"].shutdown_fabric()


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------

def cli_commands(ctx: Context, workspace: Path) -> list[tuple[str, list[str]]]:
    store = str(workspace / "store")
    seed = str(ctx.seed)
    return [
        ("help", ctx.repro("--help")),
        ("fig2", ctx.repro("experiments", "--only", "fig2", "--seed", seed)),
        ("reproduce_cold", ctx.repro("reproduce", "--store-dir", store)),
        ("reproduce_warm", ctx.repro("reproduce", "--store-dir", store)),
        ("report", ctx.repro("report", "--store-dir", store,
                             "--output-dir", str(workspace / "report"))),
        ("waveform", ctx.repro("waveform", "--sweep", "modes", "--num-symbols",
                               str(WAVEFORM_SYMBOLS), "--seed", seed)),
    ]


def cli_oneshot(ctx: Context) -> Outcome:
    workspace = ctx.work / "cli"
    setups = []
    for rep in range(_round_count(ctx)):
        with ctx.span("bench.setup", rep=rep):
            started = time.perf_counter()
            shutil.rmtree(workspace, ignore_errors=True)
            workspace.mkdir(parents=True)
            warm = run_child(ctx, [sys.executable, "-m", "repro", "--help"],
                             f"cli-setup-{rep}")
            setups.append(time.perf_counter() - started)
        if warm.returncode != 0:
            return Outcome({}, problems=[f"setup: repro --help exited {warm.returncode}"])
    commands = cli_commands(ctx, workspace)
    walls: dict[str, list[float]] = {name: [] for name, _ in commands}
    first_stdout: dict[str, bytes] = {}
    problems: list[str] = []
    maxrss = 0
    attempted = failed = passes = 0
    started = time.perf_counter()
    last_pass = 0.0
    while passes < MIN_PASSES or (time.perf_counter() - started) + last_pass <= ctx.seconds:
        pass_started = time.perf_counter()
        shutil.rmtree(workspace / "store", ignore_errors=True)
        shutil.rmtree(workspace / "report", ignore_errors=True)
        for name, args in commands:
            with ctx.span("client.command", command=name, rid=f"cli-{passes}-{name}"):
                child = run_child(ctx, args, f"cli-{name}")
            attempted += 1
            maxrss = max(maxrss, child.maxrss_kb)
            walls[name].append(child.wall_s)
            if child.returncode != 0:
                failed += 1
                problems.append(f"pass {passes}: {name} exited {child.returncode}")
            elif name not in first_stdout:
                first_stdout[name] = child.stdout
            elif child.stdout != first_stdout[name]:
                failed += 1
                problems.append(f"pass {passes}: {name} stdout differs from pass 0")
        passes += 1
        last_pass = time.perf_counter() - pass_started
    medians_ms = {name: median(values) * 1e3 for name, values in walls.items()}
    total_s = sum(sum(values) for values in walls.values())
    details = {f"cli.{name}_ms": value for name, value in medians_ms.items()}
    details.update({"setup_s": median(setups), "peak_rss_mb": maxrss / 1024,
                    "error_rate": failed / attempted,
                    "throughput_rps": attempted / total_s, "passes": passes})
    return Outcome(
        metrics={"setup_s": median(setups), "peak_rss_mb": maxrss / 1024,
                 "throughput_rps": attempted / total_s,
                 "latency_ms": sum(medians_ms.values())},
        details=details, problems=problems, attempted=attempted, failed=failed,
        runs=passes, samples={"setup_s": len(setups), "latency_ms": passes,
                              "throughput_rps": attempted, "peak_rss_mb": attempted,
                              **{f"cli.{name}_ms": len(v) for name, v in walls.items()}})


# ---------------------------------------------------------------------------
# serve workloads
# ---------------------------------------------------------------------------

_SERVE_COUNTERS = ("requests", "coalesced", "store_hits", "computed", "failed",
                   "rejected")


def _serve_counters(daemon: Daemon) -> dict[str, float]:
    status, stats = daemon.get("/stats")
    if status != 200:
        raise RuntimeError(f"GET /stats answered {status}")
    counters = {name: stats["serve"][name] for name in _SERVE_COUNTERS}
    counters["lock_retries"] = stats["queue"].get("lock_retries", 0)
    return counters


def _with_ratio(delta: dict[str, float]) -> dict[str, float]:
    served = delta.get("coalesced", 0) + delta.get("store_hits", 0)
    delta["hit_or_coalesced_ratio"] = (served / delta["requests"]
                                       if delta.get("requests") else 0.0)
    return delta


def _start_serving(ctx: Context, label: str, templates: list[dict] | None):
    """One set-up: a daemon over an empty store.

    With ``templates``, the store is first filled through the CLI
    (``repro reproduce``) and every template is then requested once.
    Returns ``(daemon, seconds, payload hash of each template)``.
    """
    store = ctx.work / label / "store"
    shutil.rmtree(store.parent, ignore_errors=True)
    store.parent.mkdir(parents=True)
    started = time.perf_counter()
    if templates:
        fill = run_child(ctx, ctx.repro("reproduce", "--store-dir", str(store)),
                         f"{label}-reproduce")
        if fill.returncode != 0:
            raise RuntimeError(f"{label}: repro reproduce exited {fill.returncode}")
    daemon = Daemon(ctx, store, f"{label}-daemon").start()
    hashes: list[str] = []
    try:
        client = Client(daemon.host, daemon.port)
        for index, job in enumerate(templates or ()):
            reply = client.submit(job, f"{label}-fill-{index}")
            if not reply.ok:
                raise RuntimeError(f"{label}: set-up job {job} failed: "
                                   f"{reply.status} {reply.error}")
            hashes.append(reply.payload_sha)
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - started, hashes


@dataclass
class Window:
    """What the measured window on one daemon yields."""

    log: LatencyLog
    seconds: float
    records: list[tuple] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    delta: dict[str, float] = field(default_factory=dict)
    not_store: int = 0  # successful replies whose provenance is not "store"


@dataclass
class Rounds:
    windows: list[Window]
    setups: list[float]
    maxrss_kb: list[int]

    @property
    def log(self) -> LatencyLog:
        pooled = LatencyLog(CLIENT_TIMEOUT_S)
        for window in self.windows:
            pooled.extend(window.log)
        return pooled

    @property
    def throughput_rps(self) -> float:
        """Successful requests over the summed window time."""
        done = sum(w.log.attempted - w.log.failed for w in self.windows)
        return done / sum(w.seconds for w in self.windows)

    @property
    def delta(self) -> dict[str, float]:
        total: dict[str, float] = {}
        for window in self.windows:
            for name, value in window.delta.items():
                total[name] = total.get(name, 0) + value
        return _with_ratio(total)


def _round_count(ctx: Context) -> int:
    """Set-ups per run: one when tracing, whose runs report no ``setup_s``."""
    return 1 if ctx.tracer is not None else SETUP_REPS


def _serve_rounds(ctx: Context, workload: str, templates: list[dict] | None,
                  measure) -> Rounds:
    """Set up a daemon and measure a window on it, :data:`SETUP_REPS` times.

    Each round gets ``--seconds / rounds`` of the window, so daemon-to-daemon
    variation is averaged inside one run; ``setup_s`` is the median set-up.
    ``measure(daemon, round, seconds, template hashes)`` returns a
    :class:`Window`.
    """
    rounds = _round_count(ctx)
    result = Rounds([], [], [])
    for index in range(rounds):
        with ctx.span("bench.setup", round=index):
            daemon, seconds, hashes = _start_serving(ctx, f"{workload}-{index}", templates)
        result.setups.append(seconds)
        try:
            before = _serve_counters(daemon)
            with ctx.span("bench.window", round=index):
                window = measure(daemon, index, ctx.seconds / rounds, hashes)
            after = _serve_counters(daemon)
            window.delta = {name: after[name] - before[name] for name in after}
        finally:
            daemon.stop()
        result.windows.append(window)
        result.maxrss_kb.append(daemon.maxrss_kb)
    return result


def _outcome(rounds: Rounds, latency_q: float, problems: list[str],
             details: dict) -> Outcome:
    log = rounds.log
    throughput = rounds.throughput_rps
    latency = log.percentile_ms(latency_q)
    if latency is None:
        problems.append(f"only {log.attempted} requests: p{latency_q * 100:g} unsupported")
    delta = rounds.delta
    peak_mb = median(rounds.maxrss_kb) / 1024
    details = {"setup_s": median(rounds.setups), "peak_rss_mb": peak_mb,
               "error_rate": log.error_rate, "throughput_rps": throughput,
               "latency_p50_ms": log.percentile_ms(0.50),
               "latency_p90_ms": log.percentile_ms(0.90),
               "latency_p99_ms": log.percentile_ms(0.99), "daemons": len(rounds.windows),
               "http.response_bytes": _mean_bytes(rounds),
               **details, **{f"serve.{name}": value for name, value in delta.items()}}
    return Outcome(
        metrics={"setup_s": median(rounds.setups), "peak_rss_mb": peak_mb,
                 "throughput_rps": throughput,
                 "latency_ms": latency if latency is not None else CLIENT_TIMEOUT_S * 1e3},
        details=details,
        problems=problems + [p for w in rounds.windows for p in w.problems],
        attempted=log.attempted, failed=log.failed, runs=len(rounds.windows),
        samples={"setup_s": len(rounds.setups), "latency_ms": log.attempted,
                 "throughput_rps": log.attempted,
                 "peak_rss_mb": len(rounds.maxrss_kb)},
        serve_delta=delta,
        client_requests=[row for window in rounds.windows for row in window.records])


def _mean_bytes(rounds: Rounds) -> float:
    rows = [row for window in rounds.windows for row in window.records]
    return sum(row[3] for row in rows) / len(rows) if rows else 0.0


def _zipf_sampler(count: int, rng: random.Random):
    weights = [1.0 / (rank + 1) ** ZIPF_ALPHA for rank in range(count)]
    cumulative = list(accumulate(weights))
    total = cumulative[-1]
    return lambda: bisect_left(cumulative, rng.random() * total)


def serve_hot(ctx: Context) -> Outcome:
    catalog = catalogue(ctx.root)
    templates = [{"kind": kind, "name": name}
                 for kind in ("figure", "scenario", "waveform") for name in catalog[kind]]
    random.Random(RANKING_SEED).shuffle(templates)  # popularity rank order
    clients = max(1, min(os.cpu_count() or 1, 4))
    first_hashes: list[str] = []

    def measure(daemon: Daemon, round_index: int, seconds: float,
                expected: list[str]) -> Window:
        if not first_hashes:
            first_hashes.extend(expected)
        problems = ([] if expected == first_hashes else
                    [f"round {round_index}: set-up payloads differ from round 0"])
        logs = [LatencyLog(CLIENT_TIMEOUT_S) for _ in range(clients)]
        records: list[list[tuple]] = [[] for _ in range(clients)]
        not_store = [0] * clients
        mismatched = [0] * clients
        stop_at = time.perf_counter() + seconds

        def loop(index: int) -> None:
            client = Client(daemon.host, daemon.port)
            draw = _zipf_sampler(len(templates),
                                 random.Random(f"{ctx.seed}-{round_index}-{index}"))
            while time.perf_counter() < stop_at:
                template = draw()
                request_id = f"hot-{round_index}-{index}-{len(records[index])}"
                start_ns = time.perf_counter_ns()
                reply = client.submit(templates[template], request_id)
                end_ns = time.perf_counter_ns()
                ok = reply.ok
                if ok and reply.payload_sha != expected[template]:
                    mismatched[index] += 1
                    ok = False
                if ok and reply.provenance != "store":
                    not_store[index] += 1
                logs[index].record(reply.latency_s, ok)
                records[index].append((request_id, start_ns, end_ns, reply.nbytes))

        threads = [threading.Thread(target=loop, args=(index,)) for index in range(clients)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window = Window(LatencyLog(CLIENT_TIMEOUT_S), time.perf_counter() - started,
                        [row for part in records for row in part], problems)
        for part in logs:
            window.log.extend(part)
        if sum(mismatched):
            problems.append(f"round {round_index}: {sum(mismatched)} replies differ "
                            "from the set-up reply bytes")
        window.not_store = sum(not_store)
        return window

    rounds = _serve_rounds(ctx, "serve-hot", templates, measure)
    delta = rounds.delta
    problems: list[str] = []
    # Every reply must come from the store or be coalesced onto an
    # in-flight job; nothing may compute.
    if delta.get("computed", 0):
        problems.append(f"{delta['computed']} request(s) computed on the hot path")
    not_store = sum(window.not_store for window in rounds.windows)
    if not_store > delta.get("coalesced", 0):
        problems.append(f"{not_store} replies neither from the store nor coalesced")
    with ctx.span("bench.verify"):
        for index, template in enumerate(templates):
            if reference_sha(ctx.root, template) != first_hashes[index]:
                problems.append(f"served payload of {template} differs from "
                                "execute_job computed in-process")
        _shutdown_fabric()
    return _outcome(rounds, 0.50, problems,
                    {"clients": clients, "templates": len(templates)})


def miss_mix(root: Path) -> list[dict]:
    catalog = catalogue(root)
    return ([{"kind": "figure", "name": name} for name in seeded_figures(root)]
            + [{"kind": "scenario", "name": name} for name in catalog["scenario"]]
            + [{"kind": "waveform", "name": name} for name in catalog["waveform"]])


def serve_miss(ctx: Context) -> Outcome:
    mix = miss_mix(ctx.root)
    rng = random.Random(ctx.seed)
    base_seed = 10_000_000 + (ctx.seed % 1000) * 100_000
    rounds_total = _round_count(ctx)
    sent: list[tuple[dict, Reply]] = []
    block: list[dict] = []
    pooled = LatencyLog(CLIENT_TIMEOUT_S)

    def measure(daemon: Daemon, round_index: int, seconds: float, _hashes) -> Window:
        client = Client(daemon.host, daemon.port)
        window = Window(LatencyLog(CLIENT_TIMEOUT_S), 0.0)
        started = time.perf_counter()
        last = round_index == rounds_total - 1
        while True:
            now = time.perf_counter() - started
            # The last round keeps going until the pooled p90 is supported.
            if now >= seconds and (not last or pooled.percentile_ms(0.90) is not None
                                   or now >= seconds * MISS_MAX_STRETCH):
                break
            if not block:
                block.extend(mix)
                rng.shuffle(block)  # every name once per block, seeded order
            job = dict(block.pop(), seed=base_seed + len(sent))
            request_id = f"miss-{len(sent)}"
            start_ns = time.perf_counter_ns()
            reply = client.submit(job, request_id)
            end_ns = time.perf_counter_ns()
            ok = reply.ok and reply.provenance == "miss"
            if reply.ok and not ok:
                window.problems.append(f"{job} answered with provenance {reply.provenance}")
            window.log.record(reply.latency_s, ok)
            pooled.record(reply.latency_s, ok)
            sent.append((job, reply))
            window.records.append((request_id, start_ns, end_ns, reply.nbytes))
        window.seconds = time.perf_counter() - started
        return window

    rounds = _serve_rounds(ctx, "serve-miss", None, measure)
    problems: list[str] = []
    ok_requests = pooled.attempted - pooled.failed
    computed = rounds.delta.get("computed", 0)
    if computed != ok_requests:
        problems.append(f"{computed} computed for {ok_requests} successful distinct requests")
    # Byte identity on a seeded sample, at least one job of every kind.
    with ctx.span("bench.verify"):
        by_kind: dict[str, list[int]] = {}
        for index, (job, reply) in enumerate(sent):
            if reply.ok:
                by_kind.setdefault(job["kind"], []).append(index)
        sample_rng = random.Random(ctx.seed + 1)
        sample = sorted({sample_rng.choice(indices) for indices in by_kind.values()}
                        | set(sample_rng.sample(range(len(sent)), min(3, len(sent)))))
        for index in sample:
            job, reply = sent[index]
            if reply.ok and reference_sha(ctx.root, job) != reply.payload_sha:
                problems.append(f"served payload of {job} differs from execute_job "
                                "computed in-process")
        _shutdown_fabric()
    kinds = {f"requests.{kind}": sum(1 for job, _ in sent if job["kind"] == kind)
             for kind in ("figure", "scenario", "waveform")}
    return _outcome(rounds, 0.90, problems,
                    {"verified_sample": len(sample), **kinds})


WORKLOADS = {"cli-oneshot": cli_oneshot, "serve-hot": serve_hot, "serve-miss": serve_miss}
