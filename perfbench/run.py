#!/usr/bin/env python3
"""End-to-end benchmark of the Saiyan reproduction, from the user's entry points.

    python3 perfbench/run.py --workload cli-oneshot|serve-hot|serve-miss|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload drives fresh
``python -m repro ...`` processes or HTTP requests to a ``repro serve run``
daemon subprocess, checks that their outputs are correct, prints every
end-to-end metric with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``;
``--trace 1`` reruns the workload with every ``repro`` process started
through ``perfbench/launch.py``, which records spans at the layer
boundaries, and reports the ``per_layer`` metrics, a per-layer table
(calls, busy, self, wait), a Chrome trace (open it in Perfetto or
``about:tracing``) and the tracing overhead against an untraced run of the
same workload and seed.  ``--workload all`` runs every workload untraced and
traced.  Scratch files go to ``.perfbench-work/`` in the checkout.  The exit
code is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

from perfstats import bad_metric_names, cpu_ticks, host_probe_ms, provenance, steal_share
from perlayer import per_layer_metrics, queue_waits_ms
from tracing import Tracer, chrome_trace, layer_table, load_trace_dir
from workloads import WORKLOADS, Context, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
LAYERS = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _fmt(value) -> str:
    if value is None:
        return "unsupported (too few samples)"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 bench: dict) -> tuple[Outcome, dict, dict]:
    """Run one workload; returns (outcome, JSON metrics, saved result)."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace_dir = work / "trace" if trace else None
    tracer = Tracer(trace_dir) if trace else None
    ctx = Context(ROOT, work, seed, seconds, trace_dir=trace_dir, tracer=tracer)
    probe, ticks = host_probe_ms(), cpu_ticks()
    try:
        outcome = WORKLOADS[name](ctx)
    except Exception:  # noqa: BLE001 - reported as a failed run
        outcome = Outcome({}, problems=[traceback.format_exc()], attempted=1, failed=1)
    result = {"workload": name, "seed": seed, "trace": trace,
              "end_to_end": outcome.metrics, "details": outcome.details,
              "problems": outcome.problems}
    if trace:
        for request_id, start, end, nbytes in outcome.client_requests:
            tracer.record("client.request", start, end, rid=request_id,
                          attrs={"bytes": nbytes})
        tracer.flush()
        spans, counters = load_trace_dir(trace_dir)
        layer_values = per_layer_metrics(spans, counters, outcome.serve_delta,
                                         outcome.client_requests)
        table = layer_table(spans, {"queue": sum(queue_waits_ms(spans))})
        chrome = chrome_trace(spans, WORK / f"trace-{name}.json",
                              {"workload": name, "seed": seed})
        result.update(per_layer=layer_values, layer_table=table,
                      chrome_trace=str(chrome.relative_to(ROOT)), spans=len(spans))
        wanted = bench["per_layer"]
        values = {metric["name"]: layer_values.get(metric["name"], 0.0) for metric in wanted}
    else:
        wanted = bench["end_to_end"]
        values = {metric["name"]: outcome.metrics.get(metric["name"]) for metric in wanted}
    missing = [metric for metric, value in values.items() if value is None]
    if missing and not outcome.problems:
        outcome.problems.append(f"metrics not measured: {missing}")
    metrics = {metric["name"]: {"value": values[metric["name"]] or 0.0,
                                "unit": metric["unit"]} for metric in wanted}
    result["provenance"] = provenance(
        ROOT, workload=name, seed=seed, seconds=seconds, trace=trace,
        runs=outcome.runs, samples=outcome.samples, steal=steal_share(ticks, cpu_ticks()),
        probe_ms=(probe, host_probe_ms()))
    return outcome, metrics, result


def print_result(result: dict, outcome: Outcome) -> None:
    name = result["workload"]
    prov = result["provenance"]
    print(f"== {name}  seed={result['seed']}  trace={int(result['trace'])}  "
          f"nproc={prov['nproc']}  cpu={prov['cpu_model']}  python={prov['python']}  "
          f"numpy={prov['numpy']}  scipy={prov['scipy']}  commit={prov['git_commit'][:12]}")
    steal = prov["host_steal_share"]
    print(f"   attempted={outcome.attempted} failed={outcome.failed} runs={outcome.runs} "
          f"host_steal={'n/a' if steal is None else f'{steal:.1%}'} "
          f"host_probe_ms={prov['host_probe_ms'][0]:.1f}/{prov['host_probe_ms'][1]:.1f} "
          f"samples={json.dumps(outcome.samples, sort_keys=True)}")
    units = LAYERS["detail_metrics"].get(name, {})
    for metric, unit in units.items():
        if metric in outcome.details:
            print(f"   {metric:<28} {_fmt(outcome.details[metric]):>14} {unit}")
    for key, value in sorted(outcome.details.items()):
        if key not in units:
            print(f"   {key:<28} {_fmt(value):>14}")
    if result.get("trace"):
        print(f"   per-layer table ({result['spans']} spans; Chrome trace "
              f"{result['chrome_trace']}):")
        print(f"   {'layer':<10}{'calls':>9}{'busy_ms':>12}{'self_ms':>12}{'wait_ms':>12}")
        for row in result["layer_table"]:
            wait = "-" if row["wait_ms"] is None else f"{row['wait_ms']:.1f}"
            print(f"   {row['layer']:<10}{row['calls']:>9}{row['busy_ms']:>12.1f}"
                  f"{row['self_ms']:>12.1f}{wait:>12}")
        for key, value in sorted(result["per_layer"].items()):
            print(f"   {key:<36} {_fmt(value)}")
    for problem in outcome.problems:
        print(f"   CHECK FAILED: {problem.strip()}")


def tracing_overhead(untraced: dict, traced: dict) -> dict[str, float]:
    """Traced minus untraced value of every end-to-end metric."""
    return {name: traced["end_to_end"][name] - value
            for name, value in untraced["end_to_end"].items()
            if name in traced["end_to_end"] and value is not None
            and traced["end_to_end"][name] is not None}


def _save(result: dict) -> Path:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{result['workload']}-seed{result['seed']}-"
                      f"trace{int(result['trace'])}.json")
    path.write_text(json.dumps(result, indent=1, sort_keys=True, default=str))
    return path


def _load_saved(workload: str, seed: int, trace: bool) -> dict | None:
    path = WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def print_overhead(untraced: dict, traced: dict) -> None:
    overhead = tracing_overhead(untraced, traced)
    print("   tracing overhead (traced - untraced, same workload and seed): "
          + ", ".join(f"{name} {value:+.4g} ({value / untraced['end_to_end'][name]:+.1%})"
                      for name, value in overhead.items()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    bench = load_benchmark()
    names = [metric["name"] for group in ("end_to_end", "per_layer")
             for metric in bench[group]]
    if bad_metric_names(names):
        print(f"perfbench: bad metric names {bad_metric_names(names)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    started = time.perf_counter()
    if args.workload != "all":
        trace = bool(args.trace)
        outcome, metrics, result = run_workload(args.workload, args.seed, seconds,
                                                trace, bench)
        _save(result)
        print_result(result, outcome)
        counterpart = _load_saved(args.workload, args.seed, not trace)
        if counterpart is not None:
            pair = (counterpart, result) if trace else (result, counterpart)
            print_overhead(*pair)
        correct = not outcome.problems
        print(f"   wall {time.perf_counter() - started:.1f} s")
        print(json.dumps({"correct": correct, "attempted": max(outcome.attempted, 1),
                          "failed": outcome.failed, "metrics": metrics}))
        return 0 if correct else 1
    correct, attempted, failed, combined = True, 0, 0, {}
    for name in WORKLOADS:
        results = []
        for trace in (False, True):
            outcome, metrics, result = run_workload(name, args.seed, seconds, trace, bench)
            _save(result)
            print_result(result, outcome)
            results.append(result)
            correct = correct and not outcome.problems
            attempted += outcome.attempted
            failed += outcome.failed
            if not trace:
                combined.update({f"{name}.{metric}": value
                                 for metric, value in metrics.items()})
        print_overhead(*results)
    print(f"   wall {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
