"""One-command reproduce: resolve every registered artefact, verify goldens.

``repro reproduce`` walks every registered results family — the paper
figure/table drivers (:data:`repro.sim.experiments.FIGURE_DRIVERS`) and
the network scenarios (:data:`repro.sim.scenario.SCENARIOS`) — and
resolves each unit against the content-addressed result store:

* ``--dry-run`` prints the plan and nothing else: each unit's store
  digest is computed from its key (spec + seed + code fingerprints) and
  checked for *presence on disk* — no payload is read and no engine code
  runs, so the plan is instantaneous even on a cold store.
* A real run evaluates only the missing units through the existing
  incremental-evaluation machinery (:class:`~repro.sim.batch.BatchRunner`
  and :func:`~repro.sim.network_engine.run_scenario_stored`) — a warm
  store performs **zero recomputation** — and then asserts every figure
  artefact against its committed golden fixture with the same tolerance
  semantics as ``scripts/regenerate_golden.py --check`` (titles and
  series sets exact, values within :data:`TOLERANCE`).  Any drift, or a
  missing fixture, makes the exit status non-zero.

Scenarios have no golden fixtures (they are corpus runs, not paper
artefacts); reproduce records their store provenance and re-derives them
only when missing.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Same floor as tests/sim/test_golden_figures.py and regenerate_golden.py.
TOLERANCE = 1e-9

#: Committed golden fixtures (one JSON per figure/table artefact).
DEFAULT_GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"


@dataclass
class PlanItem:
    """One reproducible unit and its store resolution."""

    kind: str  # "figure" | "scenario"
    name: str
    digest: str | None  # None when the unit is not cacheable
    cached: bool
    golden: Path | None = None


def build_plan(store, *, only: list[str] | None = None,
               golden_dir: Path | None = None) -> list[PlanItem]:
    """The full reproduce plan: every registered unit, store-resolved.

    Presence is checked with ``store.path_for(digest).exists()`` — a pure
    stat, no payload read, no driver invocation — which is what makes
    ``--dry-run`` side-effect free.
    """
    from repro.sim.batch import _driver_call_plan
    from repro.sim.experiments import FIGURE_DRIVERS
    from repro.sim.scenario import get_scenario, scenario_names
    from repro.sim.store import UncacheableError, figure_driver_key, scenario_key

    golden_dir = Path(golden_dir) if golden_dir is not None else DEFAULT_GOLDEN_DIR
    plan: list[PlanItem] = []
    for artefact in sorted(FIGURE_DRIVERS):
        if only is not None and artefact not in only:
            continue
        driver = FIGURE_DRIVERS[artefact]
        config, seed, _ = _driver_call_plan(driver, None)
        try:
            key = figure_driver_key(artefact, driver, config, seed)
        except UncacheableError:
            plan.append(PlanItem("figure", artefact, None, False,
                                 golden_dir / f"{artefact}.json"))
            continue
        digest = store.digest(key)
        plan.append(PlanItem("figure", artefact, digest,
                             store.path_for(digest).exists(),
                             golden_dir / f"{artefact}.json"))
    for name in scenario_names():
        if only is not None and name not in only:
            continue
        spec = get_scenario(name)
        try:
            key = scenario_key(spec, spec.seed, "batch")
        except UncacheableError:
            plan.append(PlanItem("scenario", name, None, False))
            continue
        digest = store.digest(key)
        plan.append(PlanItem("scenario", name, digest,
                             store.path_for(digest).exists()))
    return plan


# ---------------------------------------------------------------------------
# Golden comparison (shared with scripts/regenerate_golden.py --check)
# ---------------------------------------------------------------------------

def _close(produced, committed) -> bool:
    produced = np.asarray(produced, dtype=float)
    committed = np.asarray(committed, dtype=float)
    if produced.shape != committed.shape:
        return False
    with np.errstate(invalid="ignore"):
        return bool(np.allclose(produced, committed, rtol=0.0,
                                atol=TOLERANCE, equal_nan=True))


def golden_drift(artefact: str, produced, path: Path) -> list[str]:
    """Drift findings of one produced :class:`SweepResult` vs its fixture."""
    from repro.sim.metrics import SweepResult

    if not path.exists():
        return [f"{artefact}: missing fixture {path}"]
    committed = SweepResult.from_dict(json.loads(path.read_text()))
    problems = []
    if produced.title != committed.title:
        problems.append(f"{artefact}: title {produced.title!r} != "
                        f"{committed.title!r}")
    if produced.series_names != committed.series_names:
        problems.append(f"{artefact}: series {produced.series_names} != "
                        f"{committed.series_names}")
        return problems
    for name in committed.series_names:
        ours, theirs = produced.get_series(name), committed.get_series(name)
        if not _close(ours.x, theirs.x) or not _close(ours.y, theirs.y):
            problems.append(f"{artefact}/{name}: values drifted beyond "
                            f"{TOLERANCE}")
    if set(produced.scalars) != set(committed.scalars):
        problems.append(f"{artefact}: scalar keys differ")
    else:
        for key, value in committed.scalars.items():
            if not _close(produced.scalars[key], value):
                problems.append(f"{artefact}: scalar {key!r} drifted beyond "
                                f"{TOLERANCE}")
    return problems


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def run_reproduce(store, *, only: list[str] | None = None,
                  dry_run: bool = False, golden_dir: Path | None = None,
                  out=None) -> int:
    """Execute (or, with ``dry_run``, just print) the reproduce plan.

    Returns a process exit status: 0 when every unit resolved and every
    figure matches its golden fixture, 1 on drift or a missing fixture.
    """
    out = out if out is not None else sys.stdout
    golden_dir = Path(golden_dir) if golden_dir is not None else DEFAULT_GOLDEN_DIR
    plan = build_plan(store, only=only, golden_dir=golden_dir)
    if not plan:
        print(f"reproduce: nothing selected by --only {only}", file=sys.stderr)
        return 2
    if dry_run:
        cached = sum(1 for item in plan if item.cached)
        print(f"reproduce plan ({len(plan)} units, {cached} store-resident, "
              f"{len(plan) - cached} to compute):", file=out)
        for item in plan:
            status = "store-hit" if item.cached else "compute"
            digest = item.digest[:12] if item.digest else "uncacheable"
            print(f"  {status:9s}  {item.kind:8s}  {item.name:22s}  {digest}",
                  file=out)
        print("dry run: nothing computed, nothing verified.", file=out)
        return 0

    from repro.sim.batch import BatchRunner
    from repro.sim.network_engine import run_scenario_stored
    from repro.sim.scenario import get_scenario

    problems: list[str] = []
    figures = [item for item in plan if item.kind == "figure"]
    if figures:
        report = BatchRunner(store=store).run([item.name for item in figures])
        for item in figures:
            manifest = report.manifests[item.name]
            provenance = manifest.store or {}
            state = "hit" if provenance.get("hit") else "computed"
            drift = golden_drift(item.name, report.results[item.name],
                                 golden_dir / f"{item.name}.json")
            problems.extend(drift)
            verdict = "DRIFT" if drift else "ok"
            print(f"  figure    {item.name:22s}  {state:9s}  {verdict}", file=out)
    for item in plan:
        if item.kind != "scenario":
            continue
        _, state = run_scenario_stored(get_scenario(item.name), store=store)
        print(f"  scenario  {item.name:22s}  {state:9s}  ok", file=out)
    for problem in problems:
        print(f"reproduce: {problem}", file=sys.stderr)
    verified = sum(1 for item in figures)
    print(f"reproduce: {len(plan)} units resolved, {verified} checked "
          f"against goldens, {len(problems)} problem(s).", file=out)
    return 1 if problems else 0


__all__ = ["DEFAULT_GOLDEN_DIR", "PlanItem", "TOLERANCE", "build_plan",
           "golden_drift", "run_reproduce"]
