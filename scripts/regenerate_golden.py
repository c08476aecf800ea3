"""Regenerate the golden-figure fixtures under ``tests/golden/``.

Run from the repository root::

    PYTHONPATH=src python scripts/regenerate_golden.py

One JSON fixture is written per artefact of ``run_all(fast=True)`` (the
serialised :class:`~repro.sim.metrics.SweepResult`).  The regression test
``tests/sim/test_golden_figures.py`` re-runs every driver and asserts the
produced arrays match these fixtures within 1e-9, so the figures stay
pinned while the hot paths underneath them are rewritten.

Only rerun this script when a figure is *supposed* to change (a calibration
fix, a new paper artefact); commit the refreshed fixtures together with the
change that caused them and say why in the commit message.

``--check`` regenerates nothing on disk: it re-runs every driver and
compares against the committed fixtures with ``repro reproduce``'s
comparator, :func:`repro.report.reproduce.golden_drift` — the CI
golden-drift guard.  A byte diff would be wrong here: values are
seed-deterministic per platform, but NumPy kernels may differ in the last
ulps across versions.
``--output-dir`` writes the fixtures somewhere else instead of
``tests/golden/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.report.reproduce import TOLERANCE, golden_drift  # noqa: E402
from repro.sim.experiments import run_all  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output-dir", default=str(GOLDEN_DIR), metavar="DIR",
                        help="where to write the fixtures (default: the "
                             "committed tests/golden/)")
    parser.add_argument("--check", action="store_true",
                        help="write nothing: re-run every driver and fail if "
                             "any committed fixture drifted beyond the "
                             f"{TOLERANCE} tolerance or is missing/stale")
    args = parser.parse_args(argv)
    results = run_all(fast=True)
    if args.check:
        problems: list[str] = []
        for artefact, result in sorted(results.items()):
            problems.extend(golden_drift(artefact, result,
                                         GOLDEN_DIR / f"{artefact}.json"))
        stale = {path.stem for path in GOLDEN_DIR.glob("*.json")} - set(results)
        problems.extend(f"{name}: stale fixture with no driver" for name in sorted(stale))
        for problem in problems:
            print(problem, file=sys.stderr)
        if not problems:
            print(f"{len(results)} fixtures match the drivers "
                  f"(tolerance {TOLERANCE})")
        return 1 if problems else 0
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    for artefact, result in sorted(results.items()):
        path = output_dir / f"{artefact}.json"
        path.write_text(json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {path} "
              f"({len(result.series)} series, {len(result.scalars)} scalars)")
    print(f"{len(results)} fixtures regenerated under {output_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
