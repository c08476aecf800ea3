"""Tests for the persistent execution fabric and the plan caches.

The fabric's contract is purely operational — *where* work runs — so the
battery here pins pool lifecycle (lazy creation, reuse across submissions,
widening, shutdown/recovery), job ordering, and the bounded-LRU semantics
of :class:`repro.utils.plans.PlanCache` that every engine-level cache
(FIR plans, template banks, FFT workspaces, built receivers) builds on.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import faults
from repro.dsp.filters import FIR_PLAN_CACHE, fir_lowpass
from repro.exceptions import ConfigurationError
from repro.faults import FaultPlan, FaultSpec
from repro.sim.execution import (
    DEFAULT_MAX_WORKERS,
    POOL_REBUILD_LIMIT,
    ExecutionFabric,
    fabric_stats,
    get_fabric,
)
from repro.utils.plans import PlanCache, freeze_array, plan_cache_stats


# ---------------------------------------------------------------------------
# PlanCache semantics
# ---------------------------------------------------------------------------

def test_plan_cache_hit_returns_same_object():
    cache = PlanCache("test-hits", maxsize=4)
    first = cache.get("k", lambda: object())
    second = cache.get("k", lambda: object())
    assert first is second
    assert cache.hits == 1 and cache.misses == 1


def test_plan_cache_evicts_least_recently_used():
    cache = PlanCache("test-evict", maxsize=2)
    a = cache.get("a", lambda: "A")
    cache.get("b", lambda: "B")
    cache.get("a", lambda: "A2")       # refresh a's recency
    cache.get("c", lambda: "C")        # evicts b, the LRU entry
    assert "b" not in cache and "a" in cache and "c" in cache
    assert cache.evictions == 1
    assert cache.get("a", lambda: "A3") is a  # still the original build


def test_plan_cache_size_never_exceeds_maxsize():
    cache = PlanCache("test-bound", maxsize=3)
    for i in range(10):
        cache.get(i, lambda i=i: i)
    assert len(cache) == 3
    assert cache.evictions == 7


def test_plan_cache_rejects_bad_maxsize():
    with pytest.raises(ConfigurationError):
        PlanCache("test-bad", maxsize=0)


def test_plan_cache_stats_registry():
    cache = PlanCache("test-registry", maxsize=2)
    cache.get("x", lambda: 1)
    stats = plan_cache_stats()
    assert stats["test-registry"]["misses"] == 1
    assert stats["test-registry"]["maxsize"] == 2
    # The engine-level caches registered at import time are visible too.
    assert "fir-plans" in stats
    assert "template-banks" in stats
    assert "waveform-receivers" in stats
    assert "fft-workspaces" in stats


def test_freeze_array_makes_plans_read_only():
    plan = freeze_array(np.arange(4.0))
    with pytest.raises(ValueError):
        plan[0] = 99.0


def test_fir_plan_cache_returns_identical_read_only_taps():
    taps_a = fir_lowpass(10e3, 1e6)
    taps_b = fir_lowpass(10e3, 1e6)
    assert taps_a is taps_b
    assert not taps_a.flags.writeable
    assert "fir-plans" in plan_cache_stats()
    # A different design tuple misses and builds a different plan.
    taps_c = fir_lowpass(12e3, 1e6)
    assert taps_c is not taps_a
    assert FIR_PLAN_CACHE.hits >= 1


# ---------------------------------------------------------------------------
# Fabric pool lifecycle
# ---------------------------------------------------------------------------

def _job_pid(tag):
    return (tag, os.getpid())


def test_fabric_is_lazy_and_reuses_its_pool():
    # One worker makes the process-identity check deterministic: every job
    # of every batch must land on the same (reused) worker process.
    fabric = ExecutionFabric(max_workers=1)
    try:
        assert not fabric.active and fabric.pools_created == 0
        first = fabric.map_jobs(_job_pid, [("a",), ("b",)])
        assert fabric.active and fabric.pools_created == 1
        second = fabric.map_jobs(_job_pid, [("c",), ("d",)])
        assert fabric.pools_created == 1  # same pool served both batches
        assert fabric.jobs_dispatched == 4
        assert {pid for _, pid in first} == {pid for _, pid in second}
        assert len({pid for _, pid in first}) == 1
    finally:
        fabric.shutdown()


def test_fabric_map_jobs_preserves_job_order():
    fabric = ExecutionFabric(max_workers=2)
    try:
        results = fabric.map_jobs(_job_pid, [(i,) for i in range(7)])
        assert [tag for tag, _ in results] == list(range(7))
    finally:
        fabric.shutdown()


def test_fabric_empty_job_list_creates_no_pool():
    fabric = ExecutionFabric(max_workers=2)
    assert fabric.map_jobs(_job_pid, []) == []
    assert not fabric.active and fabric.pools_created == 0


def test_fabric_widens_when_more_workers_requested():
    fabric = ExecutionFabric(max_workers=1)
    try:
        fabric.map_jobs(_job_pid, [("a",)])
        assert fabric.width == 1
        fabric.map_jobs(_job_pid, [("b",)], min_workers=3)
        assert fabric.width == 3
        assert fabric.pools_created == 2  # widening recreates the pool once
        fabric.map_jobs(_job_pid, [("c",)], min_workers=2)
        assert fabric.pools_created == 2  # narrower requests reuse it
    finally:
        fabric.shutdown()


def test_fabric_survives_shutdown():
    fabric = ExecutionFabric(max_workers=1)
    fabric.map_jobs(_job_pid, [("a",)])
    fabric.shutdown()
    assert not fabric.active and fabric.width == 0
    assert fabric.map_jobs(_job_pid, [("b",)])[0][0] == "b"
    assert fabric.pools_created == 2
    fabric.shutdown()


def _worker_counter():
    # Module-level mutable state: persists inside a pool worker process for
    # as long as the worker lives.
    _WORKER_STATE["count"] = _WORKER_STATE.get("count", 0) + 1
    return _WORKER_STATE["count"]


_WORKER_STATE: dict = {}


def test_fabric_workers_keep_state_warm_across_submissions():
    """A persistent worker accumulates module state across submissions —
    the mechanism that keeps receiver/plan caches warm between sweeps."""
    fabric = ExecutionFabric(max_workers=1)
    try:
        first = fabric.map_jobs(_worker_counter, [()])[0]
        second = fabric.map_jobs(_worker_counter, [()])[0]
        assert second == first + 1
    finally:
        fabric.shutdown()


def test_fabric_recovers_from_a_worker_killed_while_idle():
    """A worker dying between calls must not surface BrokenProcessPool:
    the fabric rebuilds the pool once and retries the batch."""
    import signal

    fabric = ExecutionFabric(max_workers=1)
    try:
        (_, pid), = fabric.map_jobs(_job_pid, [("a",)])
        os.kill(pid, signal.SIGKILL)
        results = fabric.map_jobs(_job_pid, [("b",), ("c",)])
        assert [tag for tag, _ in results] == ["b", "c"]
        assert all(worker != pid for _, worker in results)
        assert fabric.pools_created == 2
    finally:
        fabric.shutdown()


class _InstantFuture:
    def __init__(self, value):
        self._value = value

    def result(self):
        return self._value


class _BreakablePool:
    """Fake executor whose submit raises BrokenProcessPool N times."""

    def __init__(self, breaks: int):
        self.breaks = breaks

    def submit(self, fn, *args):
        from concurrent.futures.process import BrokenProcessPool

        if self.breaks:
            self.breaks -= 1
            raise BrokenProcessPool("injected worker death")
        return _InstantFuture(fn(*args))


def test_map_jobs_retries_consecutive_pool_breaks(monkeypatch):
    """Two back-to-back broken pools (e.g. OOM-killed workers under server
    load) must be absorbed by the bounded rebuild loop, not escape."""
    from repro.sim import execution

    monkeypatch.setattr(execution, "POOL_REBUILD_BACKOFF_S", 0.0)
    fabric = ExecutionFabric(max_workers=1)
    pool = _BreakablePool(breaks=2)
    monkeypatch.setattr(fabric, "executor", lambda min_workers=1: pool)
    results = fabric.map_jobs(lambda value: value * 2, [(1,), (2,), (3,)])
    assert results == [2, 4, 6]
    assert fabric.pool_rebuilds == 2
    assert fabric.jobs_dispatched == 3
    assert fabric.stats()["pool_rebuilds"] == 2


def test_map_jobs_gives_up_after_the_rebuild_limit(monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    from repro.sim import execution
    from repro.sim.execution import POOL_REBUILD_LIMIT

    monkeypatch.setattr(execution, "POOL_REBUILD_BACKOFF_S", 0.0)
    fabric = ExecutionFabric(max_workers=1)
    pool = _BreakablePool(breaks=10 ** 9)
    monkeypatch.setattr(fabric, "executor", lambda min_workers=1: pool)
    with pytest.raises(BrokenProcessPool):
        fabric.map_jobs(lambda value: value, [(1,)])
    assert fabric.pool_rebuilds == POOL_REBUILD_LIMIT
    assert fabric.jobs_dispatched == 0


def test_fabric_stats_report_pool_rebuilds_by_default():
    assert fabric_stats()["pool"]["pool_rebuilds"] >= 0
    fabric = ExecutionFabric(max_workers=1)
    assert fabric.stats()["pool_rebuilds"] == 0


def test_get_fabric_returns_process_singleton():
    assert get_fabric() is get_fabric()
    assert get_fabric().max_workers == DEFAULT_MAX_WORKERS


def test_fabric_stats_shape():
    stats = fabric_stats()
    assert set(stats) == {"pool", "plan_caches", "cost_model"}
    assert {"active", "width", "max_workers", "pools_created",
            "jobs_dispatched"} <= set(stats["pool"])
    assert {"alpha", "cpu_count", "dispatch_overhead_s",
            "kinds"} <= set(stats["cost_model"])


# ---------------------------------------------------------------------------
# Fault injection and graceful degradation
# ---------------------------------------------------------------------------

@pytest.fixture(autouse=True)
def _no_fault_plan():
    faults.clear()
    yield
    faults.clear()


def test_injected_worker_crash_is_absorbed_by_the_rebuild_loop(monkeypatch):
    from repro.sim import execution

    monkeypatch.setattr(execution, "POOL_REBUILD_BACKOFF_S", 0.0)
    plan = FaultPlan(specs=(
        FaultSpec(kind="worker_crash", site="fabric.job", at=(0,)),))
    fabric = ExecutionFabric(max_workers=1)
    try:
        with faults.inject(plan):
            results = fabric.map_jobs(_job_pid, [("a",), ("b",)])
        assert [tag for tag, _ in results] == ["a", "b"]
        assert fabric.pool_rebuilds == 1
        assert plan.stats()["fired"] == {"fabric.job:worker_crash": 1}
    finally:
        fabric.shutdown()


def test_injected_slow_shard_delays_without_corrupting_results():
    plan = FaultPlan(specs=(
        FaultSpec(kind="slow_shard", site="fabric.job", at=(0,),
                  delay_s=0.05),))
    fabric = ExecutionFabric(max_workers=1)
    try:
        with faults.inject(plan):
            results = fabric.map_jobs(_job_pid, [("a",), ("b",)])
        assert [tag for tag, _ in results] == ["a", "b"]
        assert plan.fault_kinds_fired() == ("slow_shard",)
    finally:
        fabric.shutdown()


def test_fallback_serial_answers_in_process_when_rebuilds_exhaust(monkeypatch):
    from repro.sim import execution

    monkeypatch.setattr(execution, "POOL_REBUILD_BACKOFF_S", 0.0)
    # every submission crashes its worker; the pool can never deliver
    plan = FaultPlan(specs=(
        FaultSpec(kind="worker_crash", site="fabric.job", probability=1.0),))
    fabric = ExecutionFabric(max_workers=1)
    try:
        with faults.inject(plan):
            results = fabric.map_jobs(_job_pid, [("a",)], fallback_serial=True)
        assert results[0][0] == "a"
        assert results[0][1] == os.getpid()  # computed in this process
        stats = fabric.stats()
        assert stats["serial_fallbacks"] == 1
        assert stats["pool_rebuilds"] == POOL_REBUILD_LIMIT
    finally:
        fabric.shutdown()


# ---------------------------------------------------------------------------
# PlanCache checkout/checkin (exclusive scratch-workspace borrows)
# ---------------------------------------------------------------------------

def test_checkout_is_an_exclusive_borrow():
    cache = PlanCache("test-borrow", maxsize=4, mutable=True)
    first = cache.checkout("k", lambda: {"buf": 1})
    # while borrowed, a second consumer must get a private workspace
    second = cache.checkout("k", lambda: {"buf": 2})
    assert first is not second
    cache.checkin("k", first)
    assert cache.checkout("k", lambda: {"buf": 3}) is first  # warm again


def test_checkin_newest_wins_and_stays_bounded():
    cache = PlanCache("test-checkin", maxsize=1, mutable=True)
    a = cache.checkout("k", lambda: "A")
    b = cache.checkout("k", lambda: "B")
    cache.checkin("k", a)
    cache.checkin("k", b)   # replaces a: last returned borrow wins
    assert cache.checkout("k", lambda: "C") is b
    cache.checkin("k", b)
    cache.checkin("other", "D")  # maxsize=1 evicts the LRU entry
    assert len(cache) == 1
    assert cache.evictions >= 1


def test_immutable_caches_refuse_checkout_checkin():
    cache = PlanCache("test-frozen", maxsize=4)
    with pytest.raises(ConfigurationError):
        cache.checkout("k", lambda: object())
    with pytest.raises(ConfigurationError):
        cache.checkin("k", object())
