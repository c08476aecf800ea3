"""Serve load driver tests: zipf mix, measured ratio/identity, faults, gate."""

from __future__ import annotations

import collections
import json
import threading
import time

import pytest

from repro import faults
from repro.serve.client import ServeClient
from repro.serve.jobs import execute_job, parse_job
from repro.serve.loadgen import (HIT_OR_COALESCED_GATE, figure_templates,
                                 gate, hosted, run_load, zipf_schedule)
from repro.serve.server import JobServer
from repro.sim.store import ResultStore


def test_zipf_schedule_is_deterministic_and_skewed():
    first = zipf_schedule(8, 400, alpha=1.1, seed=3)
    second = zipf_schedule(8, 400, alpha=1.1, seed=3)
    assert first == second
    assert len(first) == 400
    assert set(first) <= set(range(8))
    counts = collections.Counter(first)
    # rank-0 is the hot query of the mix; the tail repeats far less
    assert counts[0] > counts.most_common()[-1][1]


class _InProcessClient:
    """run_load's client protocol over a JobServer, no sockets."""

    def __init__(self, server: JobServer) -> None:
        self.server = server

    def submit(self, job, *, wait=True, timeout=None):
        record = self.server.submit(job)
        if wait:
            self.server.wait(record, timeout)
        view = record.describe()
        view["result"] = record.payload
        return view

    def stats(self):
        return self.server.stats()


def test_run_load_meets_the_gate_on_a_repeated_mix(tmp_path):
    with JobServer(ResultStore(tmp_path / "store"),
                   queue_path=tmp_path / "queue.sqlite") as server:
        metrics = run_load(_InProcessClient(server),
                           figure_templates(["fig5", "fig23", "tab1"]),
                           requests=90, clients=4, seed=1)
    assert metrics["counters"]["requests"] == 90
    assert metrics["counters"]["failed"] == 0
    # only the 3 first-touch uniques compute; everything else is served
    assert metrics["counters"]["computed"] == 3
    assert metrics["hit_or_coalesced_ratio"] >= HIT_OR_COALESCED_GATE
    assert metrics["results_identical"] is True
    assert metrics["throughput_rps"] > 0
    assert metrics["errors"] == []


def test_run_load_measures_deltas_not_lifetime_counters(tmp_path):
    """A pre-warmed daemon's earlier traffic must not inflate the ratio."""
    with JobServer(ResultStore(tmp_path / "store"),
                   queue_path=tmp_path / "queue.sqlite") as server:
        client = _InProcessClient(server)
        run_load(client, figure_templates(["fig5"]), requests=10, clients=2)
        metrics = run_load(client, figure_templates(["fig23"]),
                           requests=10, clients=2)
    # the second mix computed its one unique; ratio reflects only its run
    assert metrics["counters"]["requests"] == 10
    assert metrics["counters"]["computed"] == 1
    assert metrics["hit_or_coalesced_ratio"] == (10 - 1) / 10


class _FlakyClient(_InProcessClient):
    """Every submit takes the same 5 ms; with ``flaky`` every other raises."""

    def __init__(self, server: JobServer, *, flaky: bool) -> None:
        super().__init__(server)
        self.flaky = flaky
        self.calls = 0
        self.lock = threading.Lock()

    def submit(self, job, **kwargs):
        time.sleep(0.005)
        with self.lock:
            self.calls += 1
            fail = self.flaky and self.calls % 2 == 0
        if fail:
            raise RuntimeError("injected submit failure")
        return super().submit(job, **kwargs)


def test_throughput_counts_only_answered_requests(tmp_path):
    templates = figure_templates(["fig5", "tab1"])
    with JobServer(ResultStore(tmp_path / "store"),
                   queue_path=tmp_path / "queue.sqlite") as server:
        run_load(_InProcessClient(server), templates, requests=4, clients=1)
        clean = run_load(_FlakyClient(server, flaky=False), templates,
                         requests=40, clients=2)
        flaky = run_load(_FlakyClient(server, flaky=True), templates,
                         requests=40, clients=2)
    assert clean["errors"] == [] and len(flaky["errors"]) == 10
    assert flaky["results_identical"] is False
    # half the submits failed in the same wall time: half the throughput
    assert 0.3 < flaky["throughput_rps"] / clean["throughput_rps"] < 0.7


def test_hosted_fault_plan_fires_and_payloads_match_one_shot():
    plan = faults.FaultPlan(seed=3, specs=(
        faults.FaultSpec(kind="http_disconnect", site="http.reply", at=(0,)),
        faults.FaultSpec(kind="store_write_error", site="store.write",
                         at=(0,)),
    ))
    jobs = figure_templates(["fig5", "tab1"])
    with hosted(plan, workers=2) as (_, url):
        client = ServeClient(url, retries=4, jitter_seed=3)
        served = [client.submit(job, wait=True, timeout=60) for job in jobs]
    assert plan.fault_kinds_fired() == ("http_disconnect", "store_write_error")
    assert faults.active() is None
    for job, reply in zip(jobs, served):
        assert reply["status"] == "done"
        one_shot = execute_job(parse_job(job))[0]
        assert (json.dumps(reply["result"], sort_keys=True)
                == json.dumps(one_shot, sort_keys=True))


_PASSING = {
    "serve": {"results_identical": True, "errors": [],
              "throughput_rps": 120.0, "hit_or_coalesced_ratio": 0.97,
              "duplicate_computations": 1},
    "chaos": {"results_identical": True, "mismatches": [],
              "duplicate_computations": 1, "jobs_lost": 0,
              "fault_kinds": list(faults.FAULT_KINDS),
              "repeat_stats_identical": True, "rejected_requests": 3,
              "degraded_observed": True, "corrupt_recoveries": 1},
}


@pytest.mark.parametrize("kind, field, value, expected", [
    ("serve", "results_identical", False, "payloads differ"),
    ("serve", "throughput_rps", 0.0, "throughput_rps"),
    ("serve", "hit_or_coalesced_ratio", 0.94, "hit_or_coalesced_ratio"),
    ("serve", "duplicate_computations", 2, "computed 2 times"),
    ("chaos", "results_identical", False, "payloads differ"),
    ("chaos", "duplicate_computations", 0, "computed 0 times"),
    ("chaos", "jobs_lost", 1, "jobs_lost = 1"),
    ("chaos", "fault_kinds", list(faults.FAULT_KINDS[:4]), "fault kinds"),
    ("chaos", "repeat_stats_identical", False, "rerun differs"),
    ("chaos", "rejected_requests", 0, "never rejected"),
    ("chaos", "degraded_observed", False, "degraded"),
    ("chaos", "corrupt_recoveries", 0, "corrupted store entry"),
])
def test_gate_reports_exactly_the_violated_invariant(kind, field, value,
                                                     expected):
    assert gate(kind, _PASSING[kind]) == []
    violations = gate(kind, {**_PASSING[kind], field: value})
    assert len(violations) == 1
    assert violations[0].startswith(f"{kind}: ") and expected in violations[0]


def test_gate_on_a_bare_mix_skips_the_burst_and_fails_missing_fields():
    mix = dict(_PASSING["serve"])
    del mix["duplicate_computations"]
    assert gate("mix", mix) == []
    assert len(gate("serve", mix)) == 1
    assert len(gate("chaos", {})) == 8
