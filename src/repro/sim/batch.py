"""Batch simulation engine: vectorized network windows, ranges and sweeps.

The scalar experiment drivers regenerate every figure through Python loops —
one packet, one grid point, one fading draw at a time.  That is fine for the
few-thousand-packet runs behind the published figures but collapses at the
millions-of-packets scale the roadmap targets.  This module provides the
batch path:

* :func:`run_scenario_windows` — the vectorized window kernel of the
  scenario-driven network engine (:mod:`repro.sim.network_engine`): payload,
  ALOHA-slot and fixed-width uplink-attempt blocks per measurement window.
  The event-driven reference consumes the identical per-category random
  substreams one row at a time, so a fixed seed produces **bit-identical**
  results on either path — the batch engine is a drop-in replacement, not a
  statistical approximation of the loop.
* :func:`demodulation_ranges` / :func:`detection_ranges` — vectorized
  bisection over whole model families sharing a link budget, replacing the
  per-config scalar bisection loops of the range figures with array ops that
  return exactly the same floats.
* :class:`BatchRunner` — evaluates figure-driver sweeps (optionally fanned
  out over a process pool) and records one :class:`RunManifest` per artefact
  (driver config snapshot, seed, wall clock, scalar metrics) so batch runs
  are auditable and comparable across PRs.
"""

from __future__ import annotations

import inspect
import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.constants import BER_RANGE_THRESHOLD
from repro.exceptions import ConfigurationError, LinkError
from repro.sim.metrics import SweepResult

#: Number of bisection iterations used by the scalar range searches; the
#: vectorized searches must use the same count to reproduce the same floats.
_BISECTION_ITERATIONS: int = 64


# ---------------------------------------------------------------------------
# Network-level batch engine (scenario windows)
# ---------------------------------------------------------------------------

def run_scenario_windows(run) -> None:
    """Evaluate every window of a prepared scenario run as array blocks.

    ``run`` is a :class:`~repro.sim.network_engine.ScenarioRun`; the
    sequential feedback-loop logic (jammer phases, hop and rate commands)
    stays in the shared ``begin_window``/``record_window``/``end_window``
    methods, while each window's packet rounds — payload bits, ALOHA slot
    picks, fixed-width uplink attempt rows — are drawn and resolved as one
    block per category.

    Draw discipline (must mirror the event engine exactly): per window, the
    payload stream yields ``(packets, tags, payload_bits)`` ints, the slot
    stream ``(packets, tags)`` ints (MAC scenarios only), and the attempt
    stream ``(packets, tags, 1 + max_retransmissions)`` uniforms — all in
    round-major, tag-minor order, exactly the order the event engine's
    per-round callbacks consume the same streams one row at a time.
    """
    spec = run.spec
    packets = spec.packets_per_window
    num_tags = spec.num_tags
    attempts = run.attempts
    budget = run.max_retransmissions
    payload_bits = run.tags[0].payload_bits_per_packet
    can_hear = np.asarray(run.can_hear, dtype=bool)
    rounds = np.arange(packets)[:, None]
    for window_index in range(spec.num_windows):
        run.begin_window(window_index)
        # Payload contents never influence delivery, but the event engine
        # draws them through tag.next_packet; consume the same block.
        run.payload_rng.integers(0, 2, size=(packets, num_tags, payload_bits))
        if run.mac is not None:
            num_slots = run.mac.num_slots
            slots = run.slot_rng.integers(0, num_slots, size=(packets, num_tags))
            occupancy = np.zeros((packets, num_slots), dtype=np.int64)
            np.add.at(occupancy, (rounds, slots), 1)
            collided = occupancy[rounds, slots] > 1
        else:
            collided = np.zeros((packets, num_tags), dtype=bool)
        draws = run.attempt_rng.random((packets, num_tags, attempts))
        probability = np.asarray(run.window_probability)
        success = draws < probability[None, :, None]
        first = success[:, :, 0]
        if budget > 0:
            arq_mask = can_hear[None, :]
            any_success = success.any(axis=2)
            first_index = np.argmax(success, axis=2)
            delivered = np.where(arq_mask, any_success, first)
            attempts_used = np.where(arq_mask,
                                     np.where(any_success, first_index + 1, attempts),
                                     1)
        else:
            delivered = first
            attempts_used = np.ones((packets, num_tags), dtype=np.int64)
        # A collision wipes the round: one (wasted) transmission, no ARQ —
        # the access point cannot attribute a collided access to a tag.
        delivered = delivered & ~collided
        attempts_used = np.where(collided, 1, attempts_used)
        if budget > 0:
            heard = np.where(arq_mask & ~collided, attempts_used - 1, 0)
            missed = (~arq_mask) & ~collided & ~delivered
            run.feedback_heard += heard.sum(axis=0)
            run.feedback_missed += missed.sum(axis=0)
        run.window_delivered[:] = delivered.sum(axis=0)
        run.window_transmissions[:] = attempts_used.sum(axis=0)
        run.window_collisions[:] = collided.sum(axis=0)
        run.record_window(window_index)
        run.end_window(window_index)


# ---------------------------------------------------------------------------
# Vectorized range searches
# ---------------------------------------------------------------------------

def _shared_deterministic_link(models: Sequence):
    link = models[0].link
    if any(model.link != link for model in models[1:]):
        raise ConfigurationError(
            "vectorized range search requires all models to share one link budget")
    if link.shadowing_sigma_db > 0:
        raise LinkError("vectorized range search requires a deterministic link "
                        "(shadowing_sigma_db == 0)")
    return link


def _bisect_ranges(condition, num_models: int, max_distance_m: float) -> np.ndarray:
    """Shared vectorized bisection: largest distance where ``condition`` holds.

    Replicates the scalar searches exactly: same 0.5 m near point, same edge
    checks, same iteration count — so the array result is bit-identical to
    looping the scalar per-model bisection.
    """
    low = np.full(num_models, 0.5)
    high = np.full(num_models, float(max_distance_m))
    dead = ~condition(low)
    saturated = condition(high)
    for _ in range(_BISECTION_ITERATIONS):
        mid = (low + high) / 2.0
        ok = condition(mid)
        low = np.where(ok, mid, low)
        high = np.where(ok, high, mid)
    ranges = np.where(saturated, float(max_distance_m), low)
    return np.where(dead, 0.0, ranges)


def demodulation_ranges(models: Sequence, *, ber_threshold: float = BER_RANGE_THRESHOLD,
                        max_distance_m: float = 2000.0) -> np.ndarray:
    """Vectorized :meth:`SaiyanLinkModel.demodulation_range_m` over a model family.

    All models must share one (deterministic) link budget; they may differ in
    mode, coding rate, bandwidth, spreading factor or SAW temperature — the
    whole family is bisected simultaneously as array operations and returns
    exactly the floats the scalar per-model bisection produces.
    """
    from repro.sim.link_sim import ber_from_margin

    if not models:
        raise ConfigurationError("demodulation_ranges requires at least one model")
    link = _shared_deterministic_link(models)
    sensitivities = np.array([model.demodulation_sensitivity_dbm() for model in models])

    def below_threshold(distance: np.ndarray) -> np.ndarray:
        margin = link.rss_dbm(distance) - sensitivities
        return ber_from_margin(margin) <= ber_threshold

    return _bisect_ranges(below_threshold, len(models), max_distance_m)


def detection_ranges(models: Sequence, *, probability: float = 0.5,
                     max_distance_m: float = 2000.0) -> np.ndarray:
    """Vectorized detection-range search over models sharing one link budget.

    Works for :class:`~repro.sim.link_sim.SaiyanLinkModel` and
    :class:`~repro.sim.link_sim.BaselineLinkModel` alike (both expose
    ``detection_sensitivity_dbm`` as a property); the logistic detection
    roll-off of the whole family is evaluated as one array expression per
    bisection step.
    """
    from repro.sim.link_sim import detection_probability_from_margin

    if not models:
        raise ConfigurationError("detection_ranges requires at least one model")
    if not 0.0 < probability < 1.0:
        raise LinkError(f"probability must be in (0, 1), got {probability}")
    link = _shared_deterministic_link(models)
    sensitivities = np.array([model.detection_sensitivity_dbm for model in models])

    def detectable(distance: np.ndarray) -> np.ndarray:
        margin = link.rss_dbm(distance) - sensitivities
        return detection_probability_from_margin(margin) >= probability

    return _bisect_ranges(detectable, len(models), max_distance_m)


# ---------------------------------------------------------------------------
# Batch runner with per-run manifests
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    """Audit record of one batch-evaluated artefact."""

    artefact: str
    title: str
    driver: str
    seed: int | None
    config: dict
    scalars: dict
    series_lengths: dict
    wall_clock_s: float
    engine: str = "batch"
    numpy_version: str = np.__version__
    python_version: str = platform.python_version()
    #: Result-store provenance: ``None`` when the run did not consult the
    #: store, otherwise ``{"hit": bool, "digest": str | None}`` (plus a
    #: ``"cells"`` summary when the driver reported per-cell provenance).
    store: dict | None = None

    def to_dict(self) -> dict:
        """Return a JSON-serialisable representation of the manifest."""
        return {
            "artefact": self.artefact,
            "title": self.title,
            "driver": self.driver,
            "seed": self.seed,
            "config": self.config,
            "scalars": self.scalars,
            "series_lengths": self.series_lengths,
            "wall_clock_s": self.wall_clock_s,
            "engine": self.engine,
            "numpy_version": self.numpy_version,
            "python_version": self.python_version,
            "store": self.store,
        }


@dataclass
class BatchRunReport:
    """Results and manifests of one :class:`BatchRunner` invocation."""

    results: dict[str, SweepResult] = field(default_factory=dict)
    manifests: dict[str, RunManifest] = field(default_factory=dict)
    #: How the run was actually executed: ``"serial"``, ``"parallel"``, or
    #: ``"serial (one core or job)"`` when a requested parallel run was
    #: routed serial by :func:`~repro.sim.execution.parallel_width`.
    schedule: str | None = None

    def total_wall_clock_s(self) -> float:
        """Summed driver wall clock across all artefacts."""
        return float(sum(m.wall_clock_s for m in self.manifests.values()))


def _driver_config_snapshot(driver: Callable) -> tuple[dict, int | None]:
    """Extract the JSON-encodable default kwargs and seed of a figure driver."""
    config: dict = {}
    seed: int | None = None
    for name, parameter in inspect.signature(driver).parameters.items():
        if parameter.default is inspect.Parameter.empty:
            continue
        default = parameter.default
        if name == "random_state" and isinstance(default, int):
            seed = default
        try:
            json.dumps(default)
            config[name] = default
        except TypeError:
            config[name] = repr(default)
    return config, seed


def _driver_call_plan(driver: Callable,
                      random_state: int | None) -> tuple[dict, int | None, dict]:
    """The (config snapshot, manifest seed, call kwargs) of one invocation.

    A ``random_state`` override is only applied to drivers that accept one
    (deterministic drivers take no seed); the override shows up in both the
    config snapshot and the manifest seed so store keys and manifests
    describe the call that actually ran.
    """
    config, seed = _driver_config_snapshot(driver)
    kwargs: dict = {}
    if (random_state is not None
            and "random_state" in inspect.signature(driver).parameters):
        kwargs["random_state"] = random_state
        seed = random_state
        config = {**config, "random_state": random_state}
    return config, seed, kwargs


def _evaluate_driver(artefact: str, driver: Callable, *,
                     random_state: int | None = None
                     ) -> tuple[SweepResult, RunManifest]:
    config, seed, kwargs = _driver_call_plan(driver, random_state)
    start = time.perf_counter()
    result = driver(**kwargs)
    elapsed = time.perf_counter() - start
    manifest = RunManifest(
        artefact=artefact,
        title=result.title,
        driver=f"{driver.__module__}.{driver.__qualname__}",
        seed=seed,
        config=config,
        scalars=dict(result.scalars),
        series_lengths={series.name: len(series.x) for series in result.series},
        wall_clock_s=elapsed,
        store=_driver_cell_provenance(driver),
    )
    return result, manifest


def _driver_cell_provenance(driver: Callable) -> dict | None:
    """Per-cell store provenance a driver reported on itself, if any.

    The waveform/scenario drivers built with a store
    (:func:`repro.sim.waveform_engine.make_waveform_driver`,
    :func:`repro.sim.network_engine.make_scenario_driver`) attach their
    cell-level hit/miss record to the driver object after each run; the
    manifest carries it so every artefact's provenance is auditable.
    """
    cells = getattr(driver, "store_provenance", None)
    if cells is None:
        return None
    counts = {"hits": sum(1 for state in cells if state == "hit"),
              "misses": sum(1 for state in cells if state == "miss")}
    return {"hit": counts["misses"] == 0 and counts["hits"] > 0,
            "digest": None,
            "cells": {**counts, "provenance": list(cells)}}


def _evaluate_registered(artefact: str) -> tuple[str, SweepResult, RunManifest]:
    """Process-pool entry point: evaluate one artefact from the registry."""
    from repro.sim.experiments import FIGURE_DRIVERS

    result, manifest = _evaluate_driver(artefact, FIGURE_DRIVERS[artefact])
    return artefact, result, manifest


class BatchRunner:
    """Evaluate figure-driver sweeps on the batch path, with manifests.

    Parameters
    ----------
    drivers:
        Mapping of artefact id to zero-argument driver callable.  Defaults
        to :data:`repro.sim.experiments.FIGURE_DRIVERS` (every paper figure
        and table).
    manifest_dir:
        When given, one ``<artefact>.json`` manifest is written per run.
    store:
        Optional :class:`~repro.sim.store.ResultStore`.  Each artefact is
        looked up by its content digest before compute and persisted after,
        so an unchanged rerun is served from the store bit-identically; the
        manifests record the hit/miss provenance per artefact.  Store I/O
        happens in the parent process only (worker processes never touch
        the store), so parallel runs stay deterministic.
    """

    def __init__(self, drivers: Mapping[str, Callable] | None = None, *,
                 manifest_dir: str | Path | None = None,
                 store=None) -> None:
        if drivers is None:
            from repro.sim.experiments import FIGURE_DRIVERS

            drivers = FIGURE_DRIVERS
        self.drivers = dict(drivers)
        self.manifest_dir = Path(manifest_dir) if manifest_dir is not None else None
        self.store = store

    # ------------------------------------------------------------------
    def run(self, artefacts: Iterable[str] | None = None, *,
            parallel: bool = False,
            random_state: int | None = None) -> BatchRunReport:
        """Evaluate the selected artefacts (all by default) and return a report.

        ``parallel=True`` fans the artefacts out over the persistent warm
        pool of the execution fabric (:mod:`repro.sim.execution`; registry
        drivers only, since worker processes import them by artefact id), so
        repeated runs reuse live, cache-warm workers.  Every driver embeds its
        own seed, so a parallel run returns the same results and the same
        manifests — modulo wall-clock fields — as a serial run.  The
        request fans out only when ``min(usable_cores(), pending) > 1``
        (:func:`~repro.sim.execution.parallel_width`); with one usable core
        or one artefact left to compute it runs serially — same results,
        no fan-out tax.

        ``random_state`` overrides the embedded seed of every driver that
        accepts one (serial path only — the parallel fan-out runs registry
        drivers with their embedded seeds).
        """
        selected = list(artefacts) if artefacts is not None else list(self.drivers)
        unknown = [artefact for artefact in selected if artefact not in self.drivers]
        if unknown:
            raise ConfigurationError(f"unknown artefacts {unknown}; "
                                     f"known: {sorted(self.drivers)}")
        if random_state is not None and parallel:
            raise ConfigurationError(
                "the parallel fan-out runs registry drivers with their "
                "embedded seeds; random_state requires the serial path")
        report = BatchRunReport()
        pending = selected
        keys: dict[str, tuple[dict, str]] = {}
        if self.store is not None:
            pending = self._serve_from_store(selected, report, random_state, keys)
        from repro.sim.execution import get_cost_model, parallel_width

        cost_model = get_cost_model()
        report.schedule = "parallel" if parallel else "serial"
        if pending and parallel:
            # Validate before the rule can route the run serial, so a
            # parallel request over custom drivers fails identically on
            # every host.
            self._require_registry_drivers(pending)
            if parallel_width(len(pending)) == 1:
                parallel = False
                report.schedule = "serial (one core or job)"
        if pending and parallel:
            self._run_parallel(pending, report)
        elif pending:
            for artefact in pending:
                result, manifest = _evaluate_driver(
                    artefact, self.drivers[artefact], random_state=random_state)
                report.results[artefact] = result
                report.manifests[artefact] = manifest
                cost_model.observe(f"artefact:{artefact}", 1.0,
                                   manifest.wall_clock_s)
        if self.store is not None:
            self._persist_to_store(pending, report, keys)
        # Hits resolve before misses compute; restore request order so
        # reports are indistinguishable from a store-less run.
        report.results = {a: report.results[a] for a in selected}
        report.manifests = {a: report.manifests[a] for a in selected}
        if self.manifest_dir is not None:
            self._write_manifests(report)
        return report

    def _serve_from_store(self, selected: list[str], report: BatchRunReport,
                          random_state: int | None,
                          keys: dict[str, tuple[dict, str]]) -> list[str]:
        """Resolve store hits into ``report``; return the artefacts to compute."""
        from repro.sim.store import UncacheableError, figure_driver_key

        pending: list[str] = []
        for artefact in selected:
            driver = self.drivers[artefact]
            config, seed, _ = _driver_call_plan(driver, random_state)
            start = time.perf_counter()
            try:
                key = figure_driver_key(artefact, driver, config, seed)
            except UncacheableError:
                pending.append(artefact)
                continue
            digest = self.store.digest(key)
            keys[artefact] = (key, digest)
            payload = self.store.get(key, digest=digest)
            if payload is None:
                pending.append(artefact)
                continue
            try:
                result = SweepResult.from_dict(payload)
            except (KeyError, TypeError):
                # Payload shape drifted (valid JSON, damaged content):
                # recompute — a damaged store never becomes an error.
                pending.append(artefact)
                continue
            report.results[artefact] = result
            report.manifests[artefact] = RunManifest(
                artefact=artefact,
                title=result.title,
                driver=f"{driver.__module__}.{driver.__qualname__}",
                seed=seed,
                config=config,
                scalars=dict(result.scalars),
                series_lengths={series.name: len(series.x)
                                for series in result.series},
                wall_clock_s=time.perf_counter() - start,
                store={"hit": True, "digest": digest},
            )
        return pending

    def _persist_to_store(self, computed: list[str], report: BatchRunReport,
                          keys: dict[str, tuple[dict, str]]) -> None:
        for artefact in computed:
            manifest = report.manifests[artefact]
            if artefact not in keys:  # uncacheable driver: record and move on
                if manifest.store is None:
                    manifest.store = {"hit": False, "digest": None}
                continue
            key, digest = keys[artefact]
            self.store.put(key, report.results[artefact].to_dict(), digest=digest)
            cells = manifest.store.get("cells") if manifest.store else None
            manifest.store = {"hit": False, "digest": digest}
            if cells is not None:
                manifest.store["cells"] = cells

    def _require_registry_drivers(self, selected: list[str]) -> None:
        from repro.sim.experiments import FIGURE_DRIVERS

        non_registry = [artefact for artefact in selected
                        if FIGURE_DRIVERS.get(artefact) is not self.drivers[artefact]]
        if non_registry:
            raise ConfigurationError(
                f"process fan-out requires registry drivers; {non_registry} are custom")

    def _run_parallel(self, selected: list[str], report: BatchRunReport) -> None:
        from repro.sim.execution import get_fabric

        fabric = get_fabric()
        workers = min(len(selected), fabric.max_workers)
        jobs = [(artefact,) for artefact in selected]
        for artefact, result, manifest in fabric.map_jobs(
                _evaluate_registered, jobs, min_workers=workers):
            report.results[artefact] = result
            report.manifests[artefact] = manifest

    def _write_manifests(self, report: BatchRunReport) -> None:
        self.manifest_dir.mkdir(parents=True, exist_ok=True)
        for artefact, manifest in report.manifests.items():
            path = self.manifest_dir / f"{artefact}.json"
            path.write_text(json.dumps(manifest.to_dict(), indent=2, sort_keys=True))
