"""Tests for the sharded waveform-level ablation engine.

The battery pins the engine's core contract: the serial ``snr_sweep``, the
in-process vectorized burst kernel and the sharded process-pool evaluation
are bit-identical under a fixed seed, for every Saiyan mode and for burst
plans with a tail burst.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SaiyanConfig, SaiyanMode
from repro.exceptions import ConfigurationError
from repro.lora.demodulation import LoRaDemodulator
from repro.lora.modulation import LoRaModulator
from repro.lora.parameters import DownlinkParameters
from repro.sim.waveform_ber import measure_symbol_errors, snr_sweep
from repro.sim import waveform_engine
from repro.sim.waveform_engine import (
    WAVEFORM_SWEEPS,
    _RECEIVER_CACHE,
    _cached_receiver,
    ReceiverSpec,
    SaiyanBurstKernel,
    WaveformCell,
    WaveformSweepSpec,
    get_sweep,
    run_sweep,
    sweep_names,
)
from repro.utils.plans import PlanCache

SNRS = (-12.0, 0.0)


def _saiyan_spec(mode=SaiyanMode.SUPER, *, snrs=SNRS, num_symbols=24, **kwargs):
    return WaveformSweepSpec(
        name="test", receivers=(ReceiverSpec(mode=mode, **kwargs),),
        snrs_db=snrs, num_symbols=num_symbols, symbols_per_burst=16, seed=99)


def _counts(cells):
    return [(c.symbol_errors, c.bit_errors) for c in cells]


# ---------------------------------------------------------------------------
# Bit-identity: serial snr_sweep == kernel == sharded engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", list(SaiyanMode))
def test_kernel_bit_identical_to_serial_measurement(mode, downlink):
    config = SaiyanConfig(downlink=downlink, mode=mode)
    kernel = SaiyanBurstKernel(config)
    for snr in (-10.0, 2.0):
        serial = measure_symbol_errors(config, snr, num_symbols=24,
                                       random_state=31)
        batched = kernel.measure(snr, num_symbols=24, random_state=31)
        assert serial == batched


def test_kernel_bit_identical_with_tail_burst(saiyan_config):
    kernel = SaiyanBurstKernel(saiyan_config)
    # 21 symbols at 8 per burst: two full bursts plus a 5-symbol tail.
    serial = measure_symbol_errors(saiyan_config, -4.0, num_symbols=21,
                                   symbols_per_burst=8, random_state=5)
    batched = kernel.measure(-4.0, num_symbols=21, symbols_per_burst=8,
                             random_state=5)
    assert serial == batched


@pytest.mark.parametrize("mode", [SaiyanMode.VANILLA, SaiyanMode.SUPER])
def test_engine_bit_identical_to_serial_snr_sweep(mode, downlink):
    config = SaiyanConfig(downlink=downlink, mode=mode)
    spec = _saiyan_spec(mode)
    serial = snr_sweep(config, spec.snrs_db, num_symbols=spec.num_symbols,
                       random_state=spec.seed)
    result = run_sweep(spec)
    assert _counts(result.cells) == _counts(serial)


def test_engine_engines_and_shards_agree(downlink):
    """serial engine == batch engine == 1, 2 and 4 shards, bit for bit."""
    spec = _saiyan_spec(SaiyanMode.SUPER, num_symbols=16)
    reference = run_sweep(spec, engine="serial")
    for shards, engine in ((1, "batch"), (2, "batch"), (4, "batch"), (2, "serial")):
        result = run_sweep(spec, shards=shards, engine=engine)
        assert result.cells == reference.cells, (shards, engine)


def test_measure_cells_matches_per_cell_measurement(saiyan_config):
    kernel = SaiyanBurstKernel(saiyan_config)
    snrs = [-8.0, -2.0, 4.0]
    streams = np.random.default_rng(17).spawn(len(snrs))
    stacked = kernel.measure_cells(snrs, streams, num_symbols=16)
    single_streams = np.random.default_rng(17).spawn(len(snrs))
    singles = [kernel.measure(snr, num_symbols=16, random_state=stream)
               for snr, stream in zip(snrs, single_streams)]
    assert stacked == singles


def test_generator_random_state_threads_through_engine(saiyan_config):
    spec = _saiyan_spec(SaiyanMode.SUPER, num_symbols=16)
    from_seed = run_sweep(spec, random_state=123)
    from_generator = run_sweep(spec, random_state=np.random.default_rng(123))
    assert from_seed.cells == from_generator.cells
    assert from_seed.seed == 123
    assert from_generator.seed is None


# ---------------------------------------------------------------------------
# The standard-LoRa stacked dechirp path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("snr_db", [-2.0, -20.0])
@pytest.mark.parametrize("bits_per_chirp", [1, 2, 5, 7])
def test_stacked_dechirp_matches_serial_lora_demodulator(bits_per_chirp, snr_db):
    from repro.dsp.noise import add_awgn_snr

    num_symbols = 48
    receiver = ReceiverSpec(kind="standard_lora", bits_per_chirp=bits_per_chirp).build()
    downlink = DownlinkParameters(spreading_factor=7, bandwidth_hz=500e3,
                                  bits_per_chirp=bits_per_chirp)
    modulator = LoRaModulator(downlink, oversampling=4)
    demodulator = LoRaDemodulator(downlink, oversampling=4)
    rng = np.random.default_rng(3)
    symbols = rng.integers(0, downlink.alphabet_size, size=num_symbols)
    noisy = add_awgn_snr(modulator.modulate_symbols(symbols), snr_db, random_state=rng)
    serial = demodulator.demodulate_payload(noisy, num_symbols).symbols
    stacked = receiver._decide_stack(
        np.asarray(noisy.samples).reshape(num_symbols, modulator.samples_per_symbol))
    np.testing.assert_array_equal(stacked, serial)
    if snr_db < -10.0:
        # Deep below the LoRa threshold the two paths must agree on the
        # wrong decisions too, not only on the clean ones.
        assert np.count_nonzero(serial != symbols) > 0


def test_standard_lora_beats_saiyan_at_low_snr():
    spec = WaveformSweepSpec(
        name="test",
        receivers=(ReceiverSpec(kind="saiyan"), ReceiverSpec(kind="standard_lora")),
        snrs_db=(-15.0,), num_symbols=48, seed=8)
    result = run_sweep(spec)
    saiyan = result.cells_for("saiyan-super")[0]
    lora = result.cells_for("standard_lora")[0]
    # The commodity coherent receiver enjoys the full processing gain.
    assert lora.symbol_error_rate <= saiyan.symbol_error_rate


# ---------------------------------------------------------------------------
# Detection receivers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["plora", "aloba", "envelope"])
def test_detectors_are_deterministic_and_monotone_at_extremes(kind):
    spec = WaveformSweepSpec(
        name="test", receivers=(ReceiverSpec(kind=kind),),
        snrs_db=(-40.0, 20.0), num_symbols=48, symbols_per_burst=16, seed=6)
    first = run_sweep(spec)
    second = run_sweep(spec)
    assert first.cells == second.cells
    low, high = first.cells
    assert low.trials == high.trials == 3
    assert high.detections == high.trials, f"{kind} must detect at +20 dB"
    assert low.detections <= high.detections


def test_detection_cells_report_rates_not_symbols():
    spec = WaveformSweepSpec(name="test", receivers=(ReceiverSpec(kind="plora"),),
                             snrs_db=(0.0,), num_symbols=32, seed=1)
    cell = run_sweep(spec).cells[0]
    assert cell.symbols == 0 and cell.bits == 0
    assert 0.0 <= cell.detection_rate <= 1.0


# ---------------------------------------------------------------------------
# Spec validation and result plumbing
# ---------------------------------------------------------------------------

def test_spec_validation_errors():
    with pytest.raises(ConfigurationError):
        WaveformSweepSpec(name="x", receivers=())
    with pytest.raises(ConfigurationError):
        WaveformSweepSpec(name="x", snrs_db=())
    with pytest.raises(ConfigurationError):
        WaveformSweepSpec(name="x", num_symbols=0)
    with pytest.raises(ConfigurationError):
        WaveformSweepSpec(name="x", receivers=(ReceiverSpec(), ReceiverSpec()))
    with pytest.raises(ConfigurationError):
        ReceiverSpec(kind="nope")
    with pytest.raises(ConfigurationError):
        ReceiverSpec(kind="plora").config()
    with pytest.raises(ConfigurationError):
        run_sweep(_saiyan_spec(), engine="magic")
    with pytest.raises(ConfigurationError):
        run_sweep(_saiyan_spec(), shards=0)


def test_sweep_result_series_and_cells_for():
    spec = WaveformSweepSpec(
        name="test",
        receivers=(ReceiverSpec(mode=SaiyanMode.VANILLA), ReceiverSpec(kind="plora")),
        snrs_db=(-6.0, 6.0), num_symbols=16, seed=4)
    result = run_sweep(spec)
    assert len(result.cells) == 4
    assert [c.snr_db for c in result.cells_for("saiyan-vanilla")] == [-6.0, 6.0]
    with pytest.raises(ConfigurationError):
        result.cells_for("nope")
    sweep = result.to_sweep_result()
    assert sweep.series_names == ["saiyan-vanilla_ser", "saiyan-vanilla_ber",
                                  "plora_detection"]
    assert sweep.scalars["num_cells"] == 4.0
    # The schedule is not part of the store key, so it stays out of the payload.
    assert "engine=" not in sweep.notes and "shards=" not in sweep.notes


def test_registry_names_and_lookup():
    assert set(sweep_names()) == set(WAVEFORM_SWEEPS)
    assert "modes" in sweep_names()
    assert get_sweep("modes").receivers[0].kind == "saiyan"
    with pytest.raises(ConfigurationError):
        get_sweep("nope")
    for name, spec in WAVEFORM_SWEEPS.items():
        assert spec.name == name
        assert spec.seed is not None, f"registered sweep {name} must be seeded"


def test_sampling_rate_factor_reaches_the_quantizer():
    fast = ReceiverSpec(mode=SaiyanMode.VANILLA, sampling_safety_factor=4.0).config()
    slow = ReceiverSpec(mode=SaiyanMode.VANILLA, sampling_safety_factor=2.0).config()
    default = ReceiverSpec(mode=SaiyanMode.VANILLA).config()
    assert fast.mcu_sampling_rate_hz == 2.0 * slow.mcu_sampling_rate_hz
    assert default.mcu_sampling_rate_hz == default.downlink.practical_sampling_rate_hz
    with pytest.raises(ConfigurationError):
        SaiyanConfig(sampling_safety_factor=0.0)


def test_waveform_cell_rates():
    cell = WaveformCell(receiver="r", snr_db=0.0, symbols=10, symbol_errors=3,
                        bits=20, bit_errors=4)
    assert cell.symbol_error_rate == pytest.approx(0.3)
    assert cell.bit_error_rate == pytest.approx(0.2)
    assert cell.detection_rate == 0.0


# ---------------------------------------------------------------------------
# Execution fabric integration: warm pool reuse
# ---------------------------------------------------------------------------

def test_consecutive_sharded_sweeps_reuse_fabric_workers():
    """Two sharded sweeps must reuse the same warm pool (no per-call churn)."""
    from repro.sim.execution import get_fabric

    spec = _saiyan_spec(SaiyanMode.SUPER, num_symbols=16)
    reference = run_sweep(spec)
    fabric = get_fabric()
    first = run_sweep(spec, shards=2)   # creates the pool if none exists yet
    pools_after_first = fabric.pools_created
    jobs_after_first = fabric.jobs_dispatched
    second = run_sweep(spec, shards=2)
    assert fabric.pools_created == pools_after_first
    assert fabric.jobs_dispatched == jobs_after_first + 2
    assert first.cells == second.cells == reference.cells


def test_cold_spawn_path_still_bit_identical():
    from repro.sim.execution import shutdown_fabric

    spec = _saiyan_spec(SaiyanMode.SUPER, num_symbols=16)
    reference = run_sweep(spec)
    shutdown_fabric()   # the sharded run below spawns a fresh pool
    cold = run_sweep(spec, shards=2)
    assert cold.cells == reference.cells


# ---------------------------------------------------------------------------
# Payloads do not depend on the schedule
# ---------------------------------------------------------------------------

def test_sweep_payload_bytes_identical_under_every_schedule(monkeypatch):
    """Shard count, engine and usable cores decide where cells run, never
    what the payload holds: ``to_sweep_result().to_dict()`` is byte-equal."""
    import json

    from repro.sim import execution

    spec = WaveformSweepSpec(
        name="schedule",
        receivers=(ReceiverSpec(mode=SaiyanMode.VANILLA),
                   ReceiverSpec(mode=SaiyanMode.SUPER)),
        snrs_db=SNRS, num_symbols=8, symbols_per_burst=8, seed=5)
    payloads = set()
    for cores in (1, 2, 8):
        monkeypatch.setattr(execution, "usable_cores", lambda cores=cores: cores)
        for shards in (1, 2, "auto"):
            for engine in ("batch", "serial"):
                result = run_sweep(spec, shards=shards, engine=engine)
                if shards == "auto":
                    assert result.shards == min(cores, spec.num_cells, 4)
                payloads.add(json.dumps(result.to_sweep_result().to_dict(),
                                        sort_keys=True))
    assert len(payloads) == 1


def test_auto_shards_survive_a_zero_dispatch_estimate(monkeypatch):
    """A warm ledger holding a 0.0 s dispatch overhead must not affect an
    auto-sharded sweep: the shard count comes from the core-count rule."""
    from repro.sim import execution

    spec = _saiyan_spec(num_symbols=16)
    units = waveform_engine._sweep_units(spec, range(spec.num_cells))
    monkeypatch.setattr(execution, "usable_cores", lambda: 2)
    execution.reset_cost_model()
    try:
        model = execution.get_cost_model()
        model.observe("waveform:batch:reference", units, 1.0)
        model.observe_dispatch(0.0)
        auto = run_sweep(spec, shards="auto")
    finally:
        execution.reset_cost_model()
    assert auto.shards == 2
    assert auto.cells == run_sweep(spec, shards=1).cells


# ---------------------------------------------------------------------------
# Bounded receiver cache
# ---------------------------------------------------------------------------

def test_receiver_cache_hits_on_identical_spec_and_misses_on_mutation():
    spec = ReceiverSpec(kind="plora")
    first = _cached_receiver(spec)
    assert _cached_receiver(ReceiverSpec(kind="plora")) is first
    # Any mutated field of the full spec must miss and build a new receiver.
    assert _cached_receiver(ReceiverSpec(kind="plora", oversampling=6)) is not first
    assert _cached_receiver(
        ReceiverSpec(kind="plora", spreading_factor=8)) is not first


def test_receiver_cache_keys_on_precision_for_saiyan_arms():
    spec = ReceiverSpec()
    reference = _cached_receiver(spec, "reference")
    fast = _cached_receiver(spec, "fast")
    assert reference is not fast
    assert fast.precision == "fast"
    # Precision-agnostic baseline arms share one entry across precisions.
    baseline = ReceiverSpec(kind="aloba")
    assert _cached_receiver(baseline, "fast") is _cached_receiver(baseline)


def test_receiver_cache_is_bounded_and_evicts(monkeypatch):
    assert isinstance(_RECEIVER_CACHE, PlanCache)
    assert _RECEIVER_CACHE.maxsize == 16
    small = PlanCache("test-receiver-evict", maxsize=2)
    monkeypatch.setattr(waveform_engine, "_RECEIVER_CACHE", small)
    specs = [ReceiverSpec(kind="plora"), ReceiverSpec(kind="aloba"),
             ReceiverSpec(kind="envelope")]
    first = _cached_receiver(specs[0])
    for spec in specs[1:]:
        _cached_receiver(spec)
    assert len(small) == 2
    assert small.evictions == 1
    # The evicted (least recently used) receiver is rebuilt on next use.
    assert _cached_receiver(specs[0]) is not first


# ---------------------------------------------------------------------------
# precision="fast": tolerance-gated complex64 kernel path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", list(SaiyanMode))
def test_fast_precision_tracks_reference_within_tolerance(mode):
    """The complex64 path must stay within 0.05 SER of float64, per cell."""
    spec = _saiyan_spec(mode, snrs=(-12.0, 0.0, 9.0), num_symbols=24)
    reference = run_sweep(spec)
    fast = run_sweep(spec, precision="fast")
    assert fast.precision == "fast"
    for ref_cell, fast_cell in zip(reference.cells, fast.cells):
        assert abs(ref_cell.symbol_error_rate
                   - fast_cell.symbol_error_rate) <= 0.05, mode
        assert abs(ref_cell.bit_error_rate
                   - fast_cell.bit_error_rate) <= 0.05, mode


def test_fast_precision_envelopes_close_to_reference(saiyan_config):
    reference_kernel = SaiyanBurstKernel(saiyan_config)
    fast_kernel = SaiyanBurstKernel(saiyan_config, precision="fast")
    rng = np.random.default_rng(11)
    shape = (4, 4 * reference_kernel._sps)
    noisy = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 1e-4
    lna = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 1e-6
    ws = reference_kernel._stack_workspace(*shape)
    try:
        ws["signal"][:] = noisy
        ws["lna"][:] = lna
        reference = reference_kernel._frontend_fused(ws, shape[1]).copy()
    finally:
        reference_kernel._release_workspace(*shape, ws)
    fast = fast_kernel._envelopes_fast(noisy, lna)
    assert fast.dtype == np.float32
    scale = float(np.max(np.abs(reference)))
    assert float(np.max(np.abs(reference - fast))) <= 1e-4 * scale


def test_fast_precision_is_deterministic():
    spec = _saiyan_spec(SaiyanMode.SUPER, num_symbols=16)
    assert run_sweep(spec, precision="fast").cells == \
        run_sweep(spec, precision="fast").cells


def test_fast_precision_sharded_matches_in_process():
    spec = _saiyan_spec(SaiyanMode.SUPER, num_symbols=16)
    in_process = run_sweep(spec, precision="fast")
    sharded = run_sweep(spec, shards=2, precision="fast")
    assert sharded.cells == in_process.cells


def test_fast_precision_rejects_serial_engine():
    with pytest.raises(ConfigurationError):
        run_sweep(_saiyan_spec(), engine="serial", precision="fast")
    with pytest.raises(ConfigurationError):
        run_sweep(_saiyan_spec(), precision="double")
    with pytest.raises(ConfigurationError):
        SaiyanBurstKernel(ReceiverSpec().config(), precision="magic")


def test_fast_precision_tagged_in_sweep_result_notes():
    spec = _saiyan_spec(SaiyanMode.SUPER, num_symbols=16)
    fast_notes = run_sweep(spec, precision="fast").to_sweep_result().notes
    reference_notes = run_sweep(spec).to_sweep_result().notes
    assert "precision=fast" in fast_notes
    # The default path keeps the pre-PR-4 note format (golden stability).
    assert "precision" not in reference_notes


def test_concurrent_same_shape_sweeps_stay_bit_identical():
    """Regression: the fused engine's staging workspaces are cached per
    (config, precision, rows, length) key, so two threads running the
    *same-shaped* sweep at once (the serve layer's worker pool does exactly
    this) used to receive the same numpy buffers and silently corrupt each
    other's floats.  Workspaces are now exclusive borrows
    (checkout/checkin); concurrent runs must match the sequential answer
    bit for bit, every time.
    """
    import threading

    spec = _saiyan_spec(SaiyanMode.SUPER, num_symbols=16)
    reference = run_sweep(spec, random_state=11, shards=1)
    for _ in range(3):
        results = [None, None, None]
        errors = []

        def worker(slot):
            try:
                results[slot] = run_sweep(spec, random_state=11, shards=1)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for result in results:
            assert result.cells == reference.cells
