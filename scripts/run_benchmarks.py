"""Timing harness for the batch simulation engine.

Run from the repository root::

    PYTHONPATH=src python scripts/run_benchmarks.py [--output BENCH_batch.json]
                                                    [--packets 100000]
                                                    [--profile]

Ten sections are measured and written to ``BENCH_batch.json``.  Every
deterministic timing is the best of three repetitions, and configurations
that are compared against each other are timed with *interleaved*
repetitions (``_time_best_each``) so host drift cannot bias a ratio
toward whichever side happened to run last.  The store section keeps
single passes because its cold/warm timings are stateful.

* ``figures`` — wall clock of every figure/table driver on the batch path
  (one :class:`~repro.sim.batch.BatchRunner` pass, manifests included);
* ``engines`` — scalar-vs-batch head-to-heads on the network Monte-Carlo
  hot paths (ARQ retransmission, channel hopping, and the multi-tag network
  scenario engine, sized from ``--packets``), asserting that both engines
  produce identical results before reporting the speedup;
* ``waveform`` — the serial ``snr_sweep`` against the sharded waveform
  engine (in-process vectorized kernel and 1/4-shard process pool),
  asserting bit-identical error counts before reporting the speedups.
  Note the baseline shifted in PR 4: the fabric's plan caches (template
  banks, FIR taps, workspaces) removed the serial path's dominant
  per-point rebuild cost, making the serial reference itself ~7x faster —
  so the recorded kernel-over-serial ratio dropped even though every
  absolute number improved.  PR 7 re-raised the floor: the in-process
  kernel now stages every cell through the fused mega-batch workspaces,
  so the gate is kernel ≥ 1.7x over the warm-plan serial path on full
  runs;
* ``mega_batch`` — the fused mega-batch kernel at float64 and complex64
  precision, timed directly on :class:`SaiyanBurstKernel` over the
  waveform section's cells: the float64 counts must equal one untimed
  serial ``snr_sweep``, and the waveform section's timed serial sweep over
  each kernel time is gated on full runs (≥ 2.44x for fused-reference,
  ≥ 3.91x for fused-fast);
* ``fabric`` — the persistent execution fabric: warm-pool vs cold-spawn
  sharded sweeps, serial vs parallel ``BatchRunner`` over the full
  artefact set (result-identical, manifests compared modulo wall clock),
  and the complex64 ``precision="fast"`` kernel against the float64
  reference (max abs SER deviation reported alongside the speedup);
* ``cost_model`` — the schedule rule: a rule-routed ``parallel=True``
  BatchRunner pass against the serial baseline (``parallel_vs_serial``
  ≥ 0.98 on every host — the rule may never lose more than 2 % to the
  serial schedule), plus the ``shards="auto"`` waveform route
  (bit-identical to any forced count) and the cost ledger's stats;
* ``store`` — the content-addressed result store: a cold store-backed
  ``BatchRunner`` pass over the full artefact set (every artefact a miss,
  persisted) against a warm rerun (served from the store), asserting the
  warm results are byte-identical and that ≥ 95 % of artefacts hit.  On
  full runs the warm pass must additionally be ≥ 5x faster than the cold
  one.  ``--store-dir`` points the section at a persistent store so a CI
  job can rerun the benchmark and prove cross-run reuse;
  ``--expect-store-warm`` then fails the run unless the *first* pass was
  already served from the store (the CI warm-rerun assertion);
* ``serve`` — :func:`repro.serve.loadgen.run_serve`: a live daemon under
  a zipf-repeated query mix (throughput, latency percentiles,
  hit-or-coalesced ratio), then a single-flight burst;
* ``chaos`` — :func:`repro.serve.loadgen.run_chaos`: six seeded fault
  kinds replayed against a live daemon, twice, gated on zero lost jobs,
  payloads byte-identical to the one-shot output, exactly one computation
  under the coalescing burst, and a deterministic rerun;
* ``report`` — the store-backed report generator: a fresh store is
  populated through the incremental-evaluation machinery and the full
  report (markdown, HTML and ``EXPERIMENTS.md``) is rendered twice, gated
  on byte-identical renders, at least one artefact, and zero artefacts
  missing provenance.

``--smoke`` shrinks every workload for CI: the head-to-heads still assert
engine equality.  Wall-clock gates that need amortisation (waveform kernel
≥1.7x, mega-batch ≥2.44x/3.91x, pool reuse ≥1.5x, precision ≥1.2x) only
apply to full runs, and the
forced-parallel BatchRunner ≥2x gate additionally requires a multi-core
host — process fan-out cannot beat serial on one core, so on such hosts
the speedup is recorded with ``gate_enforced: false``.  The cost-model
``parallel_vs_serial`` ≥ 0.98 gate has no such escape hatch: routing
through the model must be safe everywhere.

``--profile`` additionally captures cProfile top-20 cumulative hotspots of
each section and writes them to ``BENCH_profile.txt`` next to the JSON
output, so future perf PRs start from evidence.

Future PRs rerun this script to track the performance trajectory; the
committed ``BENCH_batch.json`` is the baseline, and
``scripts/check_bench_schema.py`` validates it in CI.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import platform
import pstats
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.channel.interference import InterferenceEnvironment, Jammer  # noqa: E402
from repro.core.config import SaiyanConfig, SaiyanMode  # noqa: E402
from repro.lora.parameters import DownlinkParameters  # noqa: E402
from repro.net.channel_hopping import ChannelHopController, ChannelPlan  # noqa: E402
from repro.serve import loadgen  # noqa: E402
from repro.sim.batch import BatchRunner  # noqa: E402
from repro.sim.network import FeedbackNetworkSimulator  # noqa: E402


def _time(func) -> tuple[float, object]:
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def _time_best(func, repeats: int = 3) -> tuple[float, object]:
    """Best-of-``repeats`` wall clock (and the first run's result).

    Single-sample timings on a busy host are dominated by scheduler noise;
    the minimum over a few repetitions is the standard estimator for the
    cost of the code itself.  Every deterministic section uses this
    uniformly.  The store section is the exception and keeps single
    passes: its cold/warm timings are *stateful* (the first pass populates
    the store the second one reads), so repeating a pass changes what is
    being measured.
    """
    best = float("inf")
    result: object = None
    for attempt in range(max(1, repeats)):
        elapsed, outcome = _time(func)
        if attempt == 0:
            result = outcome
        best = min(best, elapsed)
    return best, result


def _time_best_each(runs, repeats: int = 3) -> dict:
    """Interleaved :func:`_time_best` over several configurations.

    ``runs`` is a list of ``(label, callable)``.  Each repetition times
    every configuration once, in order, and the per-label minimum is
    kept.  The benchmark currency is the *ratio* between configurations,
    and back-to-back minima are biased by host drift (a slow minute
    penalises whichever configuration happened to run inside it);
    interleaving exposes every configuration to the same drift.

    Returns ``{label: (best_seconds, first_result)}``.
    """
    best = {label: float("inf") for label, _ in runs}
    results: dict = {}
    for attempt in range(max(1, repeats)):
        for label, func in runs:
            elapsed, outcome = _time(func)
            if attempt == 0:
                results[label] = outcome
            best[label] = min(best[label], elapsed)
    return {label: (best[label], results[label]) for label, _ in runs}


def _engine_head_to_head(name: str, run, repeats: int = 3) -> dict:
    timed = _time_best_each([("scalar", lambda: run("scalar")),
                             ("batch", lambda: run("batch"))], repeats)
    scalar_s, scalar_result = timed["scalar"]
    batch_s, batch_result = timed["batch"]
    if scalar_result != batch_result:
        raise AssertionError(f"{name}: scalar and batch engines disagree "
                             f"({scalar_result!r} vs {batch_result!r})")
    speedup = scalar_s / batch_s if batch_s > 0 else float("inf")
    print(f"  {name:<28} scalar {scalar_s * 1e3:9.1f} ms   "
          f"batch {batch_s * 1e3:8.1f} ms   speedup {speedup:6.1f}x")
    return {"scalar_s": scalar_s, "batch_s": batch_s, "speedup": speedup,
            "engines_agree": True}


def benchmark_engines(num_packets: int, *, repeats: int = 3) -> dict:
    """Scalar-vs-batch wall clock on the Monte-Carlo hot paths."""
    print(f"engine head-to-heads ({num_packets} packets, best of {repeats}):")
    engines: dict[str, dict] = {}

    downlink = DownlinkParameters(spreading_factor=7, bandwidth_hz=500e3,
                                  bits_per_chirp=2)
    config = SaiyanConfig(downlink=downlink, mode=SaiyanMode.SUPER)

    def run_retransmission(engine: str):
        simulator = FeedbackNetworkSimulator(
            uplink_success_probability=lambda tag, channel: 0.456,
            downlink_rss_dbm=lambda tag: -60.0,
            config=config)
        return simulator.run_retransmission_experiment(
            num_packets=num_packets // 5, max_retransmissions=3,
            random_state=26, engine=engine)

    engines[f"retransmission_{num_packets // 5}"] = _engine_head_to_head(
        "ARQ retransmission", run_retransmission, repeats)

    def run_hopping(engine: str):
        interference = InterferenceEnvironment()
        interference.add(Jammer(frequency_hz=433.5e6, power_dbm=20.0,
                                bandwidth_hz=1.2e6, distance_m=3.0))
        controller = ChannelHopController(
            plan=ChannelPlan(base_frequency_hz=433.5e6, spacing_hz=500e3,
                             num_channels=4),
            interference=interference, interference_threshold_dbm=-80.0)
        simulator = FeedbackNetworkSimulator(
            uplink_success_probability=lambda tag, channel: 0.9,
            downlink_rss_dbm=lambda tag: -60.0,
            config=config)
        windows = simulator.run_channel_hopping_experiment(
            hop_controller=controller, num_windows=50,
            packets_per_window=num_packets // 100, hop_after_window=25,
            random_state=27, engine=engine)
        return [(w.window_index, w.channel_index, w.jammed, w.prr)
                for w in windows]

    engines[f"channel_hopping_50x{num_packets // 100}"] = _engine_head_to_head(
        "channel hopping", run_hopping, repeats)

    from repro.sim.network_engine import run_scenario
    from repro.sim.scenario import get_scenario

    packets_per_window = max(num_packets // 500, 10)
    spec = get_scenario("aloha-arq-jammed").with_(
        packets_per_window=packets_per_window)
    offered = spec.num_tags * spec.num_windows * spec.packets_per_window

    def run_network(engine: str):
        engine = "event" if engine == "scalar" else engine
        result = run_scenario(spec, random_state=53, engine=engine)
        return result.comparison_key()

    engines[f"network_scenario_{offered}"] = _engine_head_to_head(
        "multi-tag network scenario", run_network, repeats)
    return engines


def benchmark_waveform(*, smoke: bool) -> dict:
    """Serial ``snr_sweep`` vs the sharded waveform engine (bit-identical)."""
    from repro.sim.waveform_ber import snr_sweep
    from repro.sim.waveform_engine import ReceiverSpec, WaveformSweepSpec, run_sweep

    num_points = 12 if smoke else 96
    num_symbols = 16
    seed = 7
    # The paper's K=5 high-rate configuration: the serial path rebuilds the
    # 32 correlation templates at every SNR point, which is exactly the
    # per-point cost the engine amortises.
    bits_per_chirp = 5
    downlink = DownlinkParameters(spreading_factor=7, bandwidth_hz=500e3,
                                  bits_per_chirp=bits_per_chirp)
    config = SaiyanConfig(downlink=downlink, mode=SaiyanMode.SUPER)
    snrs = tuple(np.linspace(-18.0, 15.0, num_points))
    spec = WaveformSweepSpec(name="benchmark",
                             receivers=(ReceiverSpec(bits_per_chirp=bits_per_chirp),),
                             snrs_db=snrs, num_symbols=num_symbols, seed=seed)

    # Untimed warm-up: build the receiver/kernel caches, create the fabric
    # pool and pay the first-use import and page-warming costs.  Timed
    # sharded runs then measure the steady state the fabric provides:
    # submission to a live, cache-warm worker pool (the cold-spawn cost the
    # fabric removed is measured separately in the fabric section).
    run_sweep(spec.with_(snrs_db=snrs[:2]), shards=2)

    # The engine runs are short enough that transient scheduler noise can
    # dominate a single sample; interleave a few repetitions across the
    # configurations and keep per-configuration minima (the counts are
    # asserted identical on every run).
    engine_repeats = 1 if smoke else 3
    print(f"waveform engine head-to-head ({num_points}-point SNR sweep, "
          f"{num_symbols} symbols per point, K={bits_per_chirp}, "
          f"best of {engine_repeats}, interleaved):")
    serial_counts: list = []

    def serial_run():
        points = snr_sweep(config, snrs, num_symbols=num_symbols,
                           random_state=seed)
        counts = [(p.symbol_errors, p.bit_errors) for p in points]
        if not serial_counts:
            serial_counts.append(counts)
        elif counts != serial_counts[0]:
            raise AssertionError("serial snr_sweep is not deterministic")
        return points

    def sharded_run(shards: int):
        sharded = run_sweep(spec, shards=shards)
        counts = [(c.symbol_errors, c.bit_errors) for c in sharded.cells]
        if counts != serial_counts[0]:
            raise AssertionError(
                f"waveform engine at {shards} shard(s) disagrees with the "
                f"serial snr_sweep ({counts!r} vs {serial_counts[0]!r})")
        return sharded

    timed = _time_best_each(
        [("serial", serial_run),
         ("shards_1", lambda: sharded_run(1)),
         ("shards_4", lambda: sharded_run(4))], engine_repeats)
    serial_s = timed["serial"][0]
    results = {"points": num_points, "num_symbols": num_symbols,
               "serial_s": serial_s}
    print(f"  serial snr_sweep             {serial_s * 1e3:9.1f} ms")
    for shards in (1, 4):
        sharded_s = timed[f"shards_{shards}"][0]
        speedup = serial_s / sharded_s if sharded_s > 0 else float("inf")
        results[f"shards_{shards}_s"] = sharded_s
        results[f"shards_{shards}_speedup"] = speedup
        print(f"  engine shards={shards}              {sharded_s * 1e3:9.1f} ms"
              f"   speedup {speedup:6.1f}x   (bit-identical)")
    results["engines_agree"] = True
    return results


def benchmark_mega_batch(*, smoke: bool, serial_s: float) -> dict:
    """Fused mega-batch kernel at both precisions, checked against serial.

    Times :class:`~repro.sim.waveform_engine.SaiyanBurstKernel` directly —
    no sweep/store/manifest machinery — so the numbers isolate the kernel:

    * ``fused`` + ``reference``: the float64 bit-parity chain;
    * ``fused`` + ``fast``: the tolerance-gated complex64 chain (max abs
      SER deviation reported).

    The reference counts must equal one untimed serial ``snr_sweep`` of the
    same cells (the full parity battery lives in
    ``tests/sim/test_mega_batch.py``).  The cells are the waveform
    section's sweep, so ``serial_s`` — that section's timed serial
    ``snr_sweep`` — is the baseline both gates divide:
    ``check_bench_schema.py`` floors serial over fused-reference at 2.44x
    and serial over fused-fast at 3.91x on full runs.
    """
    from repro.sim.waveform_ber import snr_sweep
    from repro.sim.waveform_engine import SaiyanBurstKernel
    from repro.utils.rng import as_rng

    num_points = 12 if smoke else 96
    num_symbols = 16
    symbols_per_burst = 16
    bits_per_chirp = 5
    seed = 7
    # Two gates ride on this section, so full runs take extra interleaved
    # repetitions: each configuration is only ~100-200ms, and the tighter
    # minima keep one busy scheduler tick from shaving a few percent off.
    repeats = 1 if smoke else 5
    downlink = DownlinkParameters(spreading_factor=7, bandwidth_hz=500e3,
                                  bits_per_chirp=bits_per_chirp)
    config = SaiyanConfig(downlink=downlink, mode=SaiyanMode.SUPER)
    snrs = tuple(float(s) for s in np.linspace(-18.0, 15.0, num_points))
    reference_kernel = SaiyanBurstKernel(config)
    fast_kernel = SaiyanBurstKernel(config, precision="fast")

    def run(kernel: SaiyanBurstKernel):
        # Generators are consumed by a measurement, so every repetition
        # re-spawns the same substreams from the root seed — each run
        # draws identical noise.
        streams = as_rng(seed).spawn(num_points)
        return kernel.measure_cells(snrs, streams, num_symbols=num_symbols,
                                    symbols_per_burst=symbols_per_burst)

    print(f"mega-batch kernel head-to-head ({num_points} cells, "
          f"{num_symbols} symbols per cell, K={bits_per_chirp}, "
          f"best of {repeats}, interleaved):")
    serial = snr_sweep(config, snrs, num_symbols=num_symbols,
                       random_state=seed)
    for kernel in (reference_kernel, fast_kernel):
        run(kernel)  # warm plan caches and workspaces untimed

    timed = _time_best_each(
        [("fused", lambda: run(reference_kernel)),
         ("fast", lambda: run(fast_kernel))], repeats)
    fused_s, fused_cells = timed["fused"]
    serial_counts = [(p.symbol_errors, p.bit_errors) for p in serial]
    fused_counts = [(p.symbol_errors, p.bit_errors) for p in fused_cells]
    if serial_counts != fused_counts:
        raise AssertionError(
            "fused mega-batch kernel disagrees with the serial snr_sweep "
            f"({fused_counts!r} vs {serial_counts!r})")
    fast_s, fast_cells = timed["fast"]
    deviation = max(abs(a.symbol_error_rate - b.symbol_error_rate)
                    for a, b in zip(fused_cells, fast_cells))
    print(f"  serial snr_sweep             {serial_s * 1e3:9.1f} ms   "
          "(baseline, waveform section)")
    print(f"  fused reference              {fused_s * 1e3:9.1f} ms   "
          f"speedup {serial_s / fused_s:6.2f}x   (bit-identical)")
    print(f"  fused fast (complex64)       {fast_s * 1e3:9.1f} ms   "
          f"speedup {serial_s / fast_s:6.2f}x   max |dSER| {deviation:.4f}")
    return {
        "points": num_points,
        "num_symbols": num_symbols,
        "symbols_per_burst": symbols_per_burst,
        "fused_reference_s": fused_s,
        "fused_fast_s": fast_s,
        "max_abs_ser_deviation": deviation,
        "counts_identical": True,
    }


def benchmark_cost_model(*, smoke: bool) -> dict:
    """The schedule rule: rule-routed parallel runs vs the serial schedule.

    Times a serial ``BatchRunner`` pass against the same artefact set with
    ``parallel=True``, which fans out only when
    ``min(usable_cores(), pending) > 1``, and reports
    ``parallel_vs_serial`` — serial wall clock over routed wall clock.
    The schema gates this at ≥ 0.98 *unconditionally*: whatever the host,
    the rule must never lose more than 2 % to the serial schedule (on one
    core it routes serially, so the ratio sits at ~1.0; on many cores it
    fans out and the ratio exceeds 1).

    Also records the ``shards="auto"`` resolution of the waveform
    benchmark workload and the cost ledger's stats for provenance.
    """
    from repro.sim.execution import get_cost_model, usable_cores
    from repro.sim.waveform_engine import ReceiverSpec, WaveformSweepSpec, run_sweep

    # The 0.98 floor applies to every payload, smoke included, so this
    # section always takes interleaved best-of-3 minima: a single sample
    # per side leaves the ratio at the mercy of one scheduler hiccup.
    repeats = 3
    print("schedule-rule head-to-head:")
    timed = _time_best_each(
        [("serial", lambda: BatchRunner().run()),
         ("auto", lambda: BatchRunner().run(parallel=True))],
        repeats)
    serial_s, serial_report = timed["serial"]
    auto_s, auto_report = timed["auto"]
    for artefact in serial_report.manifests:
        serial_manifest = serial_report.manifests[artefact].to_dict()
        auto_manifest = auto_report.manifests[artefact].to_dict()
        serial_manifest.pop("wall_clock_s")
        auto_manifest.pop("wall_clock_s")
        if serial_manifest != auto_manifest:
            raise AssertionError("rule-scheduled BatchRunner manifest "
                                 f"for {artefact} differs from serial")
    parallel_vs_serial = serial_s / auto_s if auto_s > 0 else float("inf")
    print(f"  BatchRunner ({len(serial_report.manifests)} artefacts)    "
          f"serial {serial_s * 1e3:7.1f} ms   auto {auto_s * 1e3:7.1f} ms   "
          f"ratio {parallel_vs_serial:5.2f}   "
          f"(routed {auto_report.schedule})")

    # Auto-sharded waveform sweep: the resolved shard count is recorded on
    # the result, and the counts must match the forced shards=1 run
    # bit-for-bit (the substream split never depends on the schedule).
    num_points = 6 if smoke else 12
    spec = WaveformSweepSpec(
        name="cost-model-benchmark",
        receivers=(ReceiverSpec(bits_per_chirp=5),),
        snrs_db=tuple(np.linspace(-18.0, 15.0, num_points)),
        num_symbols=16, seed=11)
    forced = run_sweep(spec, shards=1)
    auto_sweep = run_sweep(spec, shards="auto")
    if auto_sweep.cells != forced.cells:
        raise AssertionError("shards='auto' sweep disagrees with shards=1")
    print(f"  waveform shards='auto'       resolved {auto_sweep.shards} "
          "shard(s)   (bit-identical)")
    return {
        "artefacts": len(serial_report.manifests),
        "serial_s": serial_s,
        "auto_s": auto_s,
        "parallel_vs_serial": parallel_vs_serial,
        "auto_schedule": auto_report.schedule,
        "results_identical": True,
        "waveform_auto_shards": auto_sweep.shards,
        "cpu_count": usable_cores(),
        "model": get_cost_model().stats(),
    }


def benchmark_fabric(*, smoke: bool) -> dict:
    """The execution fabric: pool reuse, parallel BatchRunner, precision."""
    from repro.sim.execution import get_fabric, shutdown_fabric, usable_cores
    from repro.sim.waveform_engine import ReceiverSpec, WaveformSweepSpec, run_sweep

    fabric = get_fabric()
    repeats = 1 if smoke else 3
    results: dict = {}
    print("execution fabric head-to-heads:")

    # --- warm-pool vs cold-spawn sharded sweeps -------------------------
    # An interactive-sized sweep: the per-call pool creation the fabric
    # amortises is a *fixed* cost, so the honest place to measure it is a
    # workload shaped like the registry sweeps users actually shard —
    # where that fixed cost dominates, not a long batch run that buries it.
    num_points = 6 if smoke else 12
    spec = WaveformSweepSpec(
        name="fabric-benchmark",
        receivers=(ReceiverSpec(bits_per_chirp=5),),
        snrs_db=tuple(np.linspace(-18.0, 15.0, num_points)),
        num_symbols=16, seed=11)
    reference = run_sweep(spec)  # in-process reference counts
    run_sweep(spec, shards=2)    # ensure the fabric pool exists (warm-up)

    def checked_sharded():
        sharded = run_sweep(spec, shards=2)
        if sharded.cells != reference.cells:
            raise AssertionError("sharded sweep disagrees with the "
                                 "in-process reference")
        return sharded

    def warm():
        pools_before = fabric.pools_created
        sharded = checked_sharded()
        if fabric.pools_created != pools_before:
            raise AssertionError("warm runs must reuse the fabric pool "
                                 f"({pools_before} -> {fabric.pools_created})")
        return sharded

    def cold():
        shutdown_fabric()   # the sharded run spawns a fresh pool
        return checked_sharded()

    # Fixed-cost measurements on a busy 1-core host are noisy; interleave
    # several short runs per configuration and keep the minima.
    timed = _time_best_each([("warm", warm), ("cold", cold)], max(repeats, 5))
    warm_s = timed["warm"][0]
    cold_s = timed["cold"][0]
    reuse = cold_s / warm_s if warm_s > 0 else float("inf")
    print(f"  sharded sweep (2 shards)     cold {cold_s * 1e3:9.1f} ms   "
          f"warm {warm_s * 1e3:8.1f} ms   speedup {reuse:6.1f}x   (bit-identical)")
    results["pool_reuse"] = {
        "points": num_points, "shards": 2,
        "cold_spawn_s": cold_s, "warm_pool_s": warm_s,
        "speedup": reuse, "cells_identical": True,
    }

    # --- serial vs parallel BatchRunner over the full artefact set ------
    # On one usable core the rule routes the parallel request serially, so
    # the speedup gate below is recorded only there.
    timed = _time_best_each(
        [("serial", lambda: BatchRunner().run()),
         ("parallel", lambda: BatchRunner().run(parallel=True))], repeats)
    serial_s, serial_report = timed["serial"]
    parallel_s, parallel_report = timed["parallel"]
    for artefact in serial_report.manifests:
        serial_manifest = serial_report.manifests[artefact].to_dict()
        parallel_manifest = parallel_report.manifests[artefact].to_dict()
        serial_manifest.pop("wall_clock_s")
        parallel_manifest.pop("wall_clock_s")
        if serial_manifest != parallel_manifest:
            raise AssertionError("parallel BatchRunner manifest for "
                                 f"{artefact} differs from serial")
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    multicore = usable_cores() >= 2
    gate_enforced = multicore and not smoke
    print(f"  BatchRunner ({len(serial_report.manifests)} artefacts)    "
          f"serial {serial_s * 1e3:7.1f} ms   parallel {parallel_s * 1e3:7.1f} ms   "
          f"speedup {speedup:6.1f}x   "
          f"({'gate enforced' if gate_enforced else 'single-core host: recorded only'})")
    results["batch_runner"] = {
        "artefacts": len(serial_report.manifests),
        "serial_s": serial_s, "parallel_s": parallel_s, "speedup": speedup,
        "results_identical": True, "gate_enforced": gate_enforced,
        "cpu_count": usable_cores(),
    }

    # --- complex64 fast path vs float64 reference -----------------------
    precision_points = 8 if smoke else 24
    precision_spec = WaveformSweepSpec(
        name="precision-benchmark",
        receivers=(ReceiverSpec(bits_per_chirp=5),),
        snrs_db=tuple(np.linspace(-18.0, 15.0, precision_points)),
        num_symbols=32 if smoke else 64, seed=7)
    run_sweep(precision_spec.with_(snrs_db=precision_spec.snrs_db[:2]))
    run_sweep(precision_spec.with_(snrs_db=precision_spec.snrs_db[:2]),
              precision="fast")

    timed = _time_best_each(
        [("reference", lambda: run_sweep(precision_spec, precision="reference")),
         ("fast", lambda: run_sweep(precision_spec, precision="fast"))],
        max(repeats, 2))
    reference_s, reference_run = timed["reference"]
    fast_s, fast_run = timed["fast"]
    deviation = max(abs(a.symbol_error_rate - b.symbol_error_rate)
                    for a, b in zip(reference_run.cells, fast_run.cells))
    precision_speedup = reference_s / fast_s if fast_s > 0 else float("inf")
    print(f"  kernel precision (K=5)       float64 {reference_s * 1e3:6.1f} ms   "
          f"complex64 {fast_s * 1e3:6.1f} ms   speedup {precision_speedup:6.1f}x   "
          f"max |dSER| {deviation:.4f}")
    results["precision"] = {
        "points": precision_points,
        "reference_s": reference_s, "fast_s": fast_s,
        "speedup": precision_speedup,
        "max_abs_ser_deviation": deviation,
    }
    results["pool"] = fabric.stats()
    return results


def benchmark_store(*, smoke: bool, store_dir: str | None = None) -> dict:
    """Cold vs warm store-backed BatchRunner passes (byte-identical)."""
    import shutil
    import tempfile

    from repro.sim.store import ResultStore

    # The artefact registry is already CI-sized, so smoke and full runs
    # measure the same workload; only the wall-clock gate differs (main()).
    del smoke

    ephemeral = store_dir is None
    root = Path(store_dir) if store_dir else Path(
        tempfile.mkdtemp(prefix="repro-store-bench-"))
    print(f"result store head-to-head (full artefact registry, {root}):")

    def timed_pass() -> tuple[float, object, ResultStore]:
        store = ResultStore(root)
        start = time.perf_counter()
        report = BatchRunner(store=store).run()
        return time.perf_counter() - start, report, store

    try:
        cold_s, cold_report, cold_store = timed_pass()
        artefacts = list(cold_report.manifests)
        first_pass_hits = cold_store.hits
        prewarmed = first_pass_hits > 0
        warm_s, warm_report, warm_store = timed_pass()
        hits = warm_store.hits
        for artefact in artefacts:
            cold_json = json.dumps(cold_report.results[artefact].to_dict(),
                                   sort_keys=True)
            warm_json = json.dumps(warm_report.results[artefact].to_dict(),
                                   sort_keys=True)
            if cold_json != warm_json:
                raise AssertionError(
                    f"store-served {artefact} differs from the computed run")
        hit_fraction = hits / len(artefacts)
        if hit_fraction < 0.95:
            raise AssertionError(
                f"warm store pass hit only {hits}/{len(artefacts)} artefacts")
        speedup = cold_s / warm_s if warm_s > 0 else float("inf")
        label = "prewarmed" if prewarmed else "cold"
        print(f"  BatchRunner ({len(artefacts)} artefacts)    "
              f"{label} {cold_s * 1e3:8.1f} ms   warm {warm_s * 1e3:7.1f} ms   "
              f"speedup {speedup:6.1f}x   hits {hits}/{len(artefacts)}   "
              "(byte-identical)")
        # Drop the root path from the recorded stats: the default store is
        # a throwaway temp dir whose random name would churn the committed
        # baseline on every regeneration.
        store_stats = warm_store.stats()
        store_stats.pop("root")
        return {
            "artefacts": len(artefacts),
            "cold_s": cold_s,
            "warm_s": warm_s,
            "speedup": speedup,
            "hit_fraction": hit_fraction,
            "first_pass_hit_fraction": first_pass_hits / len(artefacts),
            "prewarmed": prewarmed,
            "results_identical": True,
            "store": store_stats,
        }
    finally:
        if ephemeral:
            shutil.rmtree(root, ignore_errors=True)


def benchmark_report(*, smoke: bool) -> dict:
    """Report generator: double render over a fresh store (byte-identical).

    Populates a throwaway store through the normal incremental-evaluation
    machinery (every figure driver plus every registered scenario), then
    renders the store-backed report twice and records the contract the
    schema gates when this section is present: at least one artefact
    rendered, zero artefacts missing provenance, and the two renders
    byte-identical in all three texts (the report is a pure function of
    the store — no timestamps, no hostnames).
    """
    import shutil
    import tempfile

    from repro.report.render import render_report
    from repro.sim.network_engine import run_scenario_stored
    from repro.sim.scenario import SCENARIOS
    from repro.sim.store import open_store

    # The artefact registry is already CI-sized; smoke and full runs
    # render the same inventory.
    del smoke
    root = Path(tempfile.mkdtemp(prefix="repro-report-bench-"))
    print("report generator (double render over a fresh store):")
    try:
        store = open_store(root)
        BatchRunner(store=store).run()
        for name in sorted(SCENARIOS):
            run_scenario_stored(SCENARIOS[name], store=store)
        first_s, first = _time(lambda: render_report(store))
        second_s, second = _time(lambda: render_report(store))
        byte_reproducible = all(first[text] == second[text] for text in
                                ("markdown", "html", "experiments"))
        summary = first["summary"]
        print(f"  {summary['artefacts']} artefacts "
              f"({summary['figures']} figures, "
              f"{summary['scenarios']} scenarios)   "
              f"render {first_s * 1e3:7.1f} ms / {second_s * 1e3:7.1f} ms   "
              f"byte-identical {byte_reproducible}   "
              f"missing provenance {len(summary['missing_provenance'])}")
        return {
            "artefacts": summary["artefacts"],
            "figures": summary["figures"],
            "scenarios": summary["scenarios"],
            "missing": len(summary["missing"]),
            "missing_provenance": len(summary["missing_provenance"]),
            "registry_entries": summary["registry_entries"],
            "byte_reproducible": byte_reproducible,
            "first_render_s": first_s,
            "second_render_s": second_s,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def benchmark_figures() -> dict:
    """Wall clock of every figure driver on the batch path."""
    print("figure drivers (batch path):")
    report = BatchRunner().run()
    figures = {}
    for artefact, manifest in report.manifests.items():
        figures[artefact] = {"batch_s": manifest.wall_clock_s,
                             "title": manifest.title}
        print(f"  {artefact:<8} {manifest.wall_clock_s * 1e3:8.1f} ms   "
              f"{manifest.title}")
    print(f"  total    {report.total_wall_clock_s() * 1e3:8.1f} ms")
    return figures


def _run_section(name: str, fn, profiles: dict | None):
    """Run one benchmark section, optionally under cProfile."""
    if profiles is None:
        return fn()
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(20)
    profiles[name] = stream.getvalue()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_batch.json"))
    parser.add_argument("--packets", type=int, default=100_000,
                        help="packets that size the engine head-to-heads "
                             "(retransmission runs packets/5, channel "
                             "hopping packets/100 per window, the network "
                             "scenario packets/500 per window)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: shrink every workload (equality "
                             "checks still apply)")
    parser.add_argument("--profile", action="store_true",
                        help="capture cProfile top-20 cumulative hotspots "
                             "per engine into BENCH_profile.txt next to "
                             "the JSON output")
    parser.add_argument("--store-dir", default=None, metavar="DIR",
                        help="persistent result-store directory for the "
                             "store section (default: a throwaway temp dir)")
    parser.add_argument("--expect-store-warm", action="store_true",
                        help="fail unless the FIRST store pass is already "
                             "served from the store (CI warm-rerun "
                             "assertion; requires --store-dir)")
    args = parser.parse_args(argv)
    if args.expect_store_warm and args.store_dir is None:
        parser.error("--expect-store-warm requires --store-dir")
    if args.smoke:
        args.packets = min(args.packets, 20_000)
    profiles: dict | None = {} if args.profile else None

    repeats = 1 if args.smoke else 3
    engines = _run_section("engines",
                           lambda: benchmark_engines(args.packets,
                                                     repeats=repeats),
                           profiles)
    waveform = _run_section("waveform",
                            lambda: benchmark_waveform(smoke=args.smoke),
                            profiles)
    mega_batch = _run_section("mega_batch",
                              lambda: benchmark_mega_batch(
                                  smoke=args.smoke,
                                  serial_s=waveform["serial_s"]),
                              profiles)
    fabric = _run_section("fabric", lambda: benchmark_fabric(smoke=args.smoke),
                          profiles)
    cost_model = _run_section("cost_model",
                              lambda: benchmark_cost_model(smoke=args.smoke),
                              profiles)
    store = _run_section("store",
                         lambda: benchmark_store(smoke=args.smoke,
                                                 store_dir=args.store_dir),
                         profiles)
    serve = _run_section("serve", lambda: loadgen.run_serve(smoke=args.smoke),
                         profiles)
    chaos = _run_section("chaos", lambda: loadgen.run_chaos(smoke=args.smoke),
                         profiles)
    report = _run_section("report",
                          lambda: benchmark_report(smoke=args.smoke),
                          profiles)
    figures = _run_section("figures", benchmark_figures, profiles)
    payload = {
        "engines": engines,
        "waveform": waveform,
        "mega_batch": mega_batch,
        "fabric": fabric,
        "cost_model": cost_model,
        "store": store,
        "serve": serve,
        "chaos": chaos,
        "report": report,
        "figures": figures,
        "figures_total_s": sum(entry["batch_s"] for entry in figures.values()),
        "packets": args.packets,
        "smoke": args.smoke,
        "profiled": args.profile,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "platform": platform.platform(),
    }
    Path(args.output).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    if profiles is not None:
        profile_path = Path(args.output).with_name("BENCH_profile.txt")
        sections = [f"=== {name} ===\n{text}" for name, text in profiles.items()]
        profile_path.write_text(
            "cProfile top-20 cumulative hotspots per benchmark section.\n"
            "Regenerate with: python scripts/run_benchmarks.py --profile\n\n"
            + "\n".join(sections))
        print(f"wrote {profile_path}")

    # The gate floors live in exactly one place — check_bench_schema.py —
    # so the fresh payload is graded by the same validator CI runs on the
    # committed baseline; a re-scoped floor can never diverge between the
    # two scripts.
    import check_bench_schema

    status = 0
    for violation in check_bench_schema.validate(payload, smoke=args.smoke):
        print(f"WARNING: {violation}", file=sys.stderr)
        status = 1
    if args.expect_store_warm and store["first_pass_hit_fraction"] < 0.95:
        print("ERROR: --expect-store-warm but the first pass hit only "
              f"{store['first_pass_hit_fraction']:.0%} of artefacts "
              "(store not warm across runs)", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
