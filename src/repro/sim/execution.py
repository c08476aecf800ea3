"""Persistent execution fabric: one warm process pool for every engine.

Before this module existed each entry point paid its own fixed costs:
:func:`repro.sim.waveform_engine.run_sweep` created and tore down a fresh
``ProcessPoolExecutor`` per call, :class:`repro.sim.batch.BatchRunner`
fan-out did the same, and chirp template banks / FIR plans / SAW gain
profiles were re-synthesised per process.  The fabric amortises all of it:

* :class:`ExecutionFabric` — a reusable, lazily created worker pool.  The
  pool survives across submissions, so worker processes keep their
  module-level plan caches warm: the first job on a worker builds its
  receivers/templates/taps, every later job reuses them.  On platforms
  with ``fork`` (Linux), workers additionally inherit whatever plans the
  parent had already built when the pool was first created.
* :meth:`ExecutionFabric.map_jobs` — the shard scheduler all three engines
  submit to: the waveform engine's grid shards, the
  :class:`~repro.sim.batch.BatchRunner` artefact fan-out, and the network
  engine's scenario grids.  Results come back in job order; a broken pool
  (a worker killed mid-job) is rebuilt and the batch retried, up to
  :data:`POOL_REBUILD_LIMIT` times.
* The plan-cache registry (:mod:`repro.utils.plans`) — bounded LRU caches
  for deterministic per-config state, reported by :func:`fabric_stats`.
* :func:`parallel_width` — the one scheduling rule every engine uses:
  split ``pending`` jobs ``min(usable_cores(), pending)`` ways (capped at
  :data:`MAX_AUTO_SHARDS` for ``shards="auto"`` sweeps); a width of 1
  means run in process.  It reads nothing but the CPU affinity and the
  pending count.
* :class:`CostModel` — a measured per-unit cost ledger (EWMA) per job kind
  plus the observed dispatch overhead.  The serve queue's
  shortest-predicted-job-first priority reads it; no scheduler does.  Kept
  alongside the fabric as a process-wide singleton
  (:func:`get_cost_model`) and reported by :func:`fabric_stats`.

Determinism contract: the fabric never touches RNG.  Every engine splits
its seed into per-cell substreams *before* submitting, and jobs carry
their substreams with them, so where a job runs (in process, warm worker,
cold worker, any shard count) can never change a single draw.  Plan caches
hold values that are pure functions of a hashable config, so a cache hit
returns the same floats a rebuild would.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from repro import faults
from repro.utils.plans import PlanCache, all_plan_caches, plan_cache_stats  # noqa: F401
from repro.utils.validation import ensure_integer


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the OS reports
    one (``taskset``, cgroup cpusets), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


#: Upper bound of a ``shards="auto"`` waveform sweep, so one sweep never
#: claims a many-core host's whole pool.
MAX_AUTO_SHARDS: int = 4

#: EWMA weight of the newest observation in the :class:`CostModel` ledger.
COST_EWMA_ALPHA: float = 0.3

#: Per-job dispatch overhead the ledger reports before its first sample.
DISPATCH_OVERHEAD_PRIOR_S: float = 0.03


def parallel_width(pending: int) -> int:
    """How many ways to split ``pending`` jobs: ``min(usable_cores(), pending)``.

    The single scheduling rule of the engines (``shards="auto"`` further
    caps it at :data:`MAX_AUTO_SHARDS`).  A width of 1 — one usable core,
    or at most one pending job — means run in process.  The width only
    decides where jobs run, never what they compute, so no schedule can
    change a payload.
    """
    return max(1, min(usable_cores(), pending))


#: Default pool width: every usable core, but at least 4 workers so sharded
#: runs on small hosts still exercise real multi-process execution.
DEFAULT_MAX_WORKERS: int = max(4, usable_cores())

#: How many times one :meth:`ExecutionFabric.map_jobs` call may rebuild a
#: broken pool before the error escapes.  Under sustained server load a
#: worker can be OOM-killed on *consecutive* batches; a single-shot retry
#: (the pre-serve behaviour) let the second break kill the daemon.
POOL_REBUILD_LIMIT: int = 3

#: Base of the exponential backoff between pool rebuilds.  An immediate
#: respawn under the memory pressure that just killed a worker tends to
#: die the same way; a short pause lets the host reclaim the workers.
POOL_REBUILD_BACKOFF_S: float = 0.05


def _faulted_job(kind: str, delay_s: float, fn: Callable, *args):
    """Worker-side fault shim: crash or stall, then (maybe) run the job.

    The fault *decision* is made in the parent (:func:`_submit_job`) so the
    schedule is deterministic regardless of which worker picks the job up;
    only the *effect* executes here.  ``worker_crash`` hard-exits the worker
    (the parent sees ``BrokenProcessPool``); ``slow_shard`` sleeps for the
    planned delay, then runs the job normally.
    """
    if kind == "worker_crash":
        os._exit(66)
    if kind == "slow_shard" and delay_s > 0:
        time.sleep(delay_s)
    return fn(*args)


def _submit_job(pool: ProcessPoolExecutor, fn: Callable, args: tuple):
    """Submit one shard, applying any active ``fabric.job`` fault."""
    spec = faults.fire("fabric.job")
    if spec is not None and spec.kind in ("worker_crash", "slow_shard"):
        return pool.submit(_faulted_job, spec.kind, spec.delay_s, fn, *args)
    return pool.submit(fn, *args)


class ExecutionFabric:
    """A persistent worker pool plus dispatch bookkeeping.

    Parameters
    ----------
    max_workers:
        Default pool width.  The pool is created lazily on first use at
        ``max(max_workers, min_workers)`` workers; a later request for
        more workers than the live pool holds recreates it wider (counted
        in ``pools_created``).  This is a sizing default, not a resource
        cap.
    """

    def __init__(self, *, max_workers: int | None = None) -> None:
        if max_workers is None:
            max_workers = DEFAULT_MAX_WORKERS
        self.max_workers = ensure_integer(max_workers, "max_workers", minimum=1)
        self._executor: ProcessPoolExecutor | None = None
        self._active_width = 0
        self.pools_created = 0
        self.jobs_dispatched = 0
        self.pool_rebuilds = 0
        self.serial_fallbacks = 0
        # > 0 while one or more map_jobs calls are inside the rebuild
        # retry loop; the serve layer reports "degraded" health then.
        self._rebuilding_count = 0
        # Serialises pool creation/teardown and the counters: the serve
        # layer drives one fabric from several worker threads, and an
        # unguarded executor() race would leak a second pool.  RLock:
        # map_jobs takes it around executor() which takes it again.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether a pool currently exists (and is presumed healthy)."""
        return self._executor is not None

    @property
    def width(self) -> int:
        """Worker count of the live pool (0 when no pool exists)."""
        return self._active_width if self._executor is not None else 0

    @property
    def rebuilding(self) -> bool:
        """Whether any in-flight batch is currently rebuilding the pool."""
        with self._lock:
            return self._rebuilding_count > 0

    def executor(self, min_workers: int = 1) -> ProcessPoolExecutor:
        """Return the live pool, creating (or widening) it if needed.

        Creating the pool is the expensive step the fabric exists to
        amortise — callers should prefer :meth:`map_jobs` and let the
        fabric keep one pool alive for the whole session.
        """
        min_workers = ensure_integer(min_workers, "min_workers", minimum=1)
        with self._lock:
            if self._executor is not None and min_workers > self._active_width:
                self.shutdown()
            if self._executor is None:
                self._active_width = max(self.max_workers, min_workers)
                self._executor = ProcessPoolExecutor(max_workers=self._active_width)
                self.pools_created += 1
            return self._executor

    def map_jobs(self, fn: Callable, jobs: Sequence[tuple], *,
                 min_workers: int = 1, fallback_serial: bool = False) -> list:
        """Run ``fn(*args)`` for every argument tuple, preserving job order.

        This is the shard scheduler: each tuple in ``jobs`` is one
        self-contained shard (spec + cell indices + RNG substreams, an
        artefact id, a scenario), submitted to the warm pool.  If the pool
        turns out to be broken (a worker died since the last call — even
        while idle between calls, or OOM-killed mid-batch), it is torn
        down and rebuilt with exponential backoff, up to
        :data:`POOL_REBUILD_LIMIT` times per call, and the whole batch
        resubmitted — jobs are pure functions of their arguments, so a
        retry cannot change results.  Only a pool that breaks on every
        rebuild lets the error escape; rebuilds are counted in
        ``pool_rebuilds`` (reported by :func:`fabric_stats`).

        ``fallback_serial`` opts into the documented degradation path:
        when every rebuild attempt is exhausted, run the batch serially
        in-process (``serial_fallbacks`` counts it) instead of raising —
        slower, but an answer.  It stays opt-in because a job that
        deterministically kills its worker would kill the caller's process
        if run in-process.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        last_error: BaseException | None = None
        rebuilding_marked = False
        try:
            for attempt in range(POOL_REBUILD_LIMIT + 1):
                if attempt:
                    time.sleep(POOL_REBUILD_BACKOFF_S * (2 ** (attempt - 1)))
                try:
                    pool = self.executor(min_workers)
                    futures = [_submit_job(pool, fn, args) for args in jobs]
                    results = [future.result() for future in futures]
                except BrokenProcessPool as exc:
                    last_error = exc
                    self.shutdown()
                else:
                    with self._lock:
                        self.jobs_dispatched += len(jobs)
                    return results
                if attempt >= POOL_REBUILD_LIMIT:
                    break
                with self._lock:
                    self.pool_rebuilds += 1
                    if not rebuilding_marked:
                        self._rebuilding_count += 1
                        rebuilding_marked = True
        finally:
            if rebuilding_marked:
                with self._lock:
                    self._rebuilding_count -= 1
        if fallback_serial:
            with self._lock:
                self.serial_fallbacks += 1
            return [fn(*args) for args in jobs]
        assert last_error is not None
        raise last_error

    def shutdown(self) -> None:
        """Tear down the pool (the next use lazily recreates it)."""
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True, cancel_futures=True)
                self._executor = None
                self._active_width = 0

    def stats(self) -> dict:
        """Pool lifecycle and dispatch counters (for benchmarks/tests)."""
        with self._lock:
            return {"active": self.active, "width": self.width,
                    "max_workers": self.max_workers,
                    "pools_created": self.pools_created,
                    "jobs_dispatched": self.jobs_dispatched,
                    "pool_rebuilds": self.pool_rebuilds,
                    "serial_fallbacks": self.serial_fallbacks,
                    "rebuilding": self._rebuilding_count > 0}


# ---------------------------------------------------------------------------
# Cost ledger
# ---------------------------------------------------------------------------

class CostModel:
    """Measured per-kind cost ledger (EWMA) plus the observed dispatch overhead.

    Every in-process evaluation reports its measured wall clock and the
    ledger keeps an exponentially weighted moving average
    (:data:`COST_EWMA_ALPHA`) of the **per-unit cost** per job kind; sharded
    waveform sweeps also report the per-job dispatch overhead they paid.
    The serve queue orders jobs shortest-predicted-first from
    :meth:`predict_seconds`, and :func:`fabric_stats` reports the ledger.
    It makes no scheduling decision — that is :func:`parallel_width` — so
    nothing it learns can reach a payload.

    The ledger is shared process-wide (:func:`get_cost_model`) and, under
    the serve layer, fed from several threads at once; every read and
    update happens under an internal lock so concurrent ``observe`` calls
    cannot interleave the read-modify-write and corrupt an estimate.
    """

    def __init__(self) -> None:
        self._dispatch_s = DISPATCH_OVERHEAD_PRIOR_S
        self._dispatch_samples = 0
        self._per_unit: dict[str, float] = {}
        self._samples: dict[str, int] = {}
        self._lock = threading.Lock()

    @property
    def dispatch_overhead_s(self) -> float:
        """Current per-job dispatch overhead estimate (prior until observed)."""
        with self._lock:
            return self._dispatch_s

    def observe(self, kind: str, units: float, seconds: float) -> None:
        """Fold one measured evaluation into the per-unit EWMA of ``kind``."""
        if units <= 0 or seconds < 0:
            return
        per_unit = seconds / units
        with self._lock:
            previous = self._per_unit.get(kind)
            if previous is None:
                self._per_unit[kind] = per_unit
            else:
                self._per_unit[kind] = (COST_EWMA_ALPHA * per_unit
                                        + (1.0 - COST_EWMA_ALPHA) * previous)
            self._samples[kind] = self._samples.get(kind, 0) + 1

    def observe_dispatch(self, seconds: float) -> None:
        """Fold one measured per-job dispatch overhead into the EWMA."""
        if seconds < 0:
            return
        with self._lock:
            if self._dispatch_samples == 0:
                self._dispatch_s = float(seconds)
            else:
                self._dispatch_s = (COST_EWMA_ALPHA * seconds
                                    + (1.0 - COST_EWMA_ALPHA) * self._dispatch_s)
            self._dispatch_samples += 1

    def predict_seconds(self, kind: str, units: float) -> float | None:
        """Predicted cost of ``units`` work of ``kind`` (None when cold)."""
        with self._lock:
            per_unit = self._per_unit.get(kind)
        if per_unit is None or units <= 0:
            return None
        return per_unit * units

    def stats(self) -> dict:
        """Counters and estimates, in the shape ``fabric_stats`` reports."""
        with self._lock:
            return {
                "alpha": COST_EWMA_ALPHA,
                "cpu_count": usable_cores(),
                "dispatch_overhead_s": self._dispatch_s,
                "dispatch_samples": self._dispatch_samples,
                "kinds": {kind: {"per_unit_s": self._per_unit[kind],
                                 "samples": self._samples.get(kind, 0)}
                          for kind in sorted(self._per_unit)},
            }


# ---------------------------------------------------------------------------
# The process-wide fabric singleton
# ---------------------------------------------------------------------------

_FABRIC: ExecutionFabric | None = None

#: Guards lazy singleton creation (a double-checked race under the serve
#: layer's worker threads would leak a second pool / lose observations).
_SINGLETON_LOCK = threading.Lock()


def get_fabric() -> ExecutionFabric:
    """The process-wide fabric all engines share (created on first use)."""
    global _FABRIC
    if _FABRIC is None:
        with _SINGLETON_LOCK:
            if _FABRIC is None:
                _FABRIC = ExecutionFabric()
                atexit.register(shutdown_fabric)
    return _FABRIC


def shutdown_fabric() -> None:
    """Shut the shared fabric's pool down (it stays usable afterwards)."""
    if _FABRIC is not None:
        _FABRIC.shutdown()


_COST_MODEL: CostModel | None = None


def get_cost_model() -> CostModel:
    """The process-wide cost ledger the engines feed (lazy, like the fabric)."""
    global _COST_MODEL
    if _COST_MODEL is None:
        with _SINGLETON_LOCK:
            if _COST_MODEL is None:
                _COST_MODEL = CostModel()
    return _COST_MODEL


def reset_cost_model() -> None:
    """Forget every observation (tests / cold-ledger benchmark sections)."""
    global _COST_MODEL
    _COST_MODEL = None


def fabric_stats() -> dict:
    """Aggregate fabric + plan-cache + cost-model statistics for reporting."""
    pool = _FABRIC.stats() if _FABRIC is not None else {
        "active": False, "width": 0, "max_workers": DEFAULT_MAX_WORKERS,
        "pools_created": 0, "jobs_dispatched": 0, "pool_rebuilds": 0,
        "serial_fallbacks": 0, "rebuilding": False}
    cost_model = (_COST_MODEL.stats() if _COST_MODEL is not None
                  else CostModel().stats())
    return {"pool": pool, "plan_caches": plan_cache_stats(),
            "cost_model": cost_model}
