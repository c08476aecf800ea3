"""Validate a BENCH_batch.json payload against the benchmark schema.

Run from the repository root::

    python scripts/check_bench_schema.py BENCH_batch.json
    python scripts/check_bench_schema.py /tmp/BENCH_smoke.json --smoke

The checker enforces two things:

* **Schema** — the sections the perf-tracking workflow relies on exist and
  carry the right shape: every engine head-to-head has
  ``engines_agree: true`` and a finite positive ``speedup``; the waveform,
  mega-batch, fabric and cost-model sections carry their timing fields;
  the precision-style entries report their ``max_abs_ser_deviation``.
* **Recorded gates** — the speedup floors this repository has committed
  to: waveform kernel ≥ 1.7x over the warm-plan serial path (raised from
  1.5x when the fused mega-batch staging landed); the waveform section's
  serial ``snr_sweep`` over the mega-batch kernel ≥ 2.44x for
  fused-reference and ≥ 3.91x for fused-fast; fabric pool reuse ≥ 1.5x;
  precision fast path ≥ 1.2x (lowered from 1.5x: the float64 reference
  itself now runs through the fused staging, so the denominator got
  faster while the fast path's absolute time also dropped); cost-model
  ``parallel_vs_serial`` ≥ 0.98 on **every** payload — the ``parallel=True``
  routing rule may never lose more than 2 % to the serial schedule, on any
  host; forced-parallel BatchRunner ≥ 2x whenever the payload recorded
  ``gate_enforced: true``; and the result store: warm passes must serve
  ≥ 95 % of artefacts on every payload and be ≥ 5x faster than the cold
  pass on full runs whose first pass was genuinely cold
  (``prewarmed: false``).  The ``serve`` and ``chaos`` sections are graded
  on every payload by :func:`repro.serve.loadgen.gate`, the function the
  load driver's own command line exits on: hit-or-coalesced ratio ≥ 0.95,
  byte-identical payloads and one computation per identical burst, plus,
  under the seeded fault plan, ``jobs_lost == 0``, at least five fault
  kinds fired, a deterministic same-seed rerun, an admission-control
  rejection, a ``degraded`` health report and a recovered corrupt entry.
  The ``report`` section is *optional* (older payloads predate
  the report generator), but when one is recorded it must prove the
  report contract: at least one artefact rendered,
  ``byte_reproducible: true`` (two renders of the same store are
  byte-identical), and ``missing_provenance == 0`` (every rendered
  number carries digest + seed + fingerprint provenance).

The ``gate_enforced`` escape hatch is deliberately narrow: it exists only
because process fan-out cannot beat serial execution on a single core, so
the payload must carry ``gate_enforced: false`` together with a
``cpu_count`` of 1 for the parallel floor to be waived.  A multi-core full
run that records ``gate_enforced: false`` is itself a violation — the
hatch cannot be used to mute a real regression.

Exit status is non-zero with one line per violation, so CI can gate on a
benchmark regression without rerunning the full benchmark suite.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve import loadgen  # noqa: E402

#: (section path, gate floor, full-run-only) for the recorded speedups.
#: The waveform gate compares the vectorized kernel against the *warm-plan*
#: serial path; PR 7's fused mega-batch staging raised it from 1.5x to
#: 1.7x (the sweep wraps the kernel in store/manifest plumbing both sides
#: share, so it compresses the raw kernel ratio the mega_batch section
#: gates directly).  The precision gate dropped 1.5x -> 1.2x at the same
#: time: its float64 denominator is now the fused-staging reference, which
#: is itself much faster, so the ratio compresses even though the fast
#: path's absolute wall clock improved.
GATES = (
    (("waveform", "shards_1_speedup"), 1.7, True),
    (("fabric", "pool_reuse", "speedup"), 1.5, True),
    (("fabric", "precision", "speedup"), 1.2, True),
)

#: (mega_batch timing field, floor) for ``waveform.serial_s`` over that
#: timing — the serial ``snr_sweep`` of the same cells — on full runs.
#: The floors were 2x (fast) and 1.25x (reference) over the chunked
#: staging path the kernel used to carry; each is scaled by the committed
#: baseline's serial/chunked ratio (0.3593 s / 0.1838 s = 1.955), so the
#: absolute bar is unchanged.
SERIAL_RATIO_GATES = (
    ("fused_reference_s", 2.44),
    ("fused_fast_s", 3.91),
)

#: Floor on cost_model.parallel_vs_serial — enforced on every payload,
#: smoke or full, single-core or not: routing a parallel request through
#: the schedule rule must be within 2 % of the serial schedule everywhere.
MIN_PARALLEL_VS_SERIAL = 0.98

#: Upper bound on the precision fast paths' SER deviation from float64.
MAX_SER_DEVIATION = 0.05


def _lookup(payload: dict, path: tuple[str, ...]):
    node = payload
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def _is_speedup(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def validate(payload: dict, *, smoke: bool) -> list[str]:
    """Return a list of violations (empty when the payload is healthy)."""
    errors: list[str] = []
    for section in ("engines", "waveform", "mega_batch", "fabric",
                    "cost_model", "store", "serve", "chaos", "figures"):
        if section not in payload:
            errors.append(f"missing section {section!r}")
    if errors:
        return errors

    for name, entry in payload["engines"].items():
        if entry.get("engines_agree") is not True:
            errors.append(f"engines[{name}]: engines_agree must be true")
        if not _is_speedup(entry.get("speedup")):
            errors.append(f"engines[{name}]: speedup missing or not finite")

    if payload["waveform"].get("engines_agree") is not True:
        errors.append("waveform: engines_agree must be true")
    for field in ("serial_s", "shards_1_speedup", "shards_4_speedup"):
        if not _is_speedup(_lookup(payload, ("waveform", field))):
            errors.append(f"waveform: {field} missing or not finite")

    mega = payload["mega_batch"]
    if mega.get("counts_identical") is not True:
        errors.append("mega_batch: counts_identical must be true")
    for field in ("fused_reference_s", "fused_fast_s"):
        if not _is_speedup(mega.get(field)):
            errors.append(f"mega_batch: {field} missing or not finite")
    deviation = mega.get("max_abs_ser_deviation")
    if not isinstance(deviation, (int, float)) or not 0 <= deviation <= MAX_SER_DEVIATION:
        errors.append("mega_batch: max_abs_ser_deviation missing or above "
                      f"the {MAX_SER_DEVIATION} bound (got {deviation!r})")

    fabric = payload["fabric"]
    if _lookup(fabric, ("pool_reuse", "cells_identical")) is not True:
        errors.append("fabric.pool_reuse: cells_identical must be true")
    if _lookup(fabric, ("batch_runner", "results_identical")) is not True:
        errors.append("fabric.batch_runner: results_identical must be true")
    for path in (("pool_reuse", "speedup"), ("batch_runner", "speedup"),
                 ("precision", "speedup")):
        if not _is_speedup(_lookup(fabric, path)):
            errors.append(f"fabric.{'.'.join(path)}: missing or not finite")
    deviation = _lookup(fabric, ("precision", "max_abs_ser_deviation"))
    if not isinstance(deviation, (int, float)) or not 0 <= deviation <= MAX_SER_DEVIATION:
        errors.append("fabric.precision: max_abs_ser_deviation missing or "
                      f"above the {MAX_SER_DEVIATION} bound (got {deviation!r})")

    cost_model = payload["cost_model"]
    if cost_model.get("results_identical") is not True:
        errors.append("cost_model: results_identical must be true")
    ratio = cost_model.get("parallel_vs_serial")
    if not _is_speedup(ratio):
        errors.append("cost_model: parallel_vs_serial missing or not finite")
    elif ratio < MIN_PARALLEL_VS_SERIAL:
        errors.append(f"gate: cost_model.parallel_vs_serial {ratio:.3f} below "
                      f"the {MIN_PARALLEL_VS_SERIAL} floor (the rule-routed "
                      "schedule lost more than 2% to serial)")
    if not isinstance(cost_model.get("model"), dict):
        errors.append("cost_model: model stats missing")

    store = payload["store"]
    if store.get("results_identical") is not True:
        errors.append("store: results_identical must be true")
    if not _is_speedup(store.get("speedup")):
        errors.append("store: speedup missing or not finite")
    hit_fraction = store.get("hit_fraction")
    if not isinstance(hit_fraction, (int, float)) or hit_fraction < 0.95:
        errors.append(f"gate: store.hit_fraction {hit_fraction!r} below the "
                      "0.95 floor")

    for kind in ("serve", "chaos"):
        errors.extend(f"gate: {violation}"
                      for violation in loadgen.gate(kind, payload[kind]))

    report = payload.get("report")
    # The report section is optional (older payloads predate the report
    # generator); when one is recorded it must prove the report contract:
    # artefacts rendered, byte-reproducible double render, full provenance.
    if report is not None:
        if not isinstance(report, dict):
            errors.append("report: must be a mapping when recorded")
        else:
            artefacts = report.get("artefacts")
            if not isinstance(artefacts, int) or artefacts < 1:
                errors.append("report: artefacts missing or < 1 "
                              f"(got {artefacts!r})")
            if report.get("byte_reproducible") is not True:
                errors.append("gate: report.byte_reproducible must be true "
                              "(two consecutive renders of the same store "
                              "must be byte-identical)")
            if report.get("missing_provenance") != 0:
                errors.append("gate: report.missing_provenance must be 0 "
                              "(every rendered number must carry digest + "
                              "seed + fingerprint provenance; got "
                              f"{report.get('missing_provenance')!r})")

    full_run = not smoke and not payload.get("smoke", False)
    for path, floor, full_only in GATES:
        value = _lookup(payload, path)
        if not _is_speedup(value):
            continue  # shape errors already recorded above
        if full_only and not full_run:
            continue
        if value < floor:
            errors.append(f"gate: {'.'.join(path)} {value:.2f}x below the "
                          f"{floor}x floor")
    serial_s = _lookup(payload, ("waveform", "serial_s"))
    for field, floor in SERIAL_RATIO_GATES:
        value = mega.get(field)
        if not full_run or not (_is_speedup(serial_s) and _is_speedup(value)):
            continue  # smoke runs are ungated; shape errors are recorded above
        if serial_s / value < floor:
            errors.append(f"gate: waveform.serial_s / mega_batch.{field} "
                          f"{serial_s / value:.2f}x below the {floor}x floor")
    # The parallel-BatchRunner escape hatch: the ≥2x floor is waived only
    # for the one situation where it is physically unreachable — a
    # single-core host.  Everything else must either enforce the gate or
    # fail the schema.
    gate_enforced = _lookup(fabric, ("batch_runner", "gate_enforced"))
    cpu_count = _lookup(fabric, ("batch_runner", "cpu_count"))
    if gate_enforced is True:
        value = _lookup(fabric, ("batch_runner", "speedup"))
        if _is_speedup(value) and value < 2.0:
            errors.append(f"gate: fabric.batch_runner.speedup {value:.2f}x "
                          "below the 2x floor (gate_enforced)")
    elif gate_enforced is False:
        if full_run and isinstance(cpu_count, int) and cpu_count > 1:
            errors.append("fabric.batch_runner: gate_enforced is false on a "
                          f"multi-core full run (cpu_count={cpu_count}) — the "
                          "escape hatch only covers single-core hosts")
    else:
        errors.append("fabric.batch_runner: gate_enforced must be recorded "
                      "(true, or false with cpu_count=1)")
    # The store warm-over-cold gate only describes runs whose first pass
    # actually computed everything: a prewarmed store makes both passes
    # warm, so the ratio is ~1x by construction.
    if full_run and store.get("prewarmed") is False:
        value = store.get("speedup")
        if _is_speedup(value) and value < 5.0:
            errors.append(f"gate: store.speedup {value:.2f}x below the "
                          "5x floor")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("payload", help="path to a BENCH_batch.json payload")
    parser.add_argument("--smoke", action="store_true",
                        help="the payload came from a --smoke run: skip the "
                             "full-run-only wall-clock gates")
    args = parser.parse_args(argv)
    path = Path(args.payload)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"{path}: unreadable payload: {error}", file=sys.stderr)
        return 2
    errors = validate(payload, smoke=args.smoke)
    for error in errors:
        print(f"{path}: {error}", file=sys.stderr)
    if not errors:
        print(f"{path}: benchmark schema and recorded gates OK")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
