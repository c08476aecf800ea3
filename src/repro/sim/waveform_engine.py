"""Sharded waveform-level ablation engine.

:mod:`repro.sim.waveform_ber` measures symbol errors by pushing actual chirp
waveforms through the actual Saiyan pipeline — one burst at a time, through
a scalar Python loop that rebuilds the modulator, the demodulator and its
correlation templates at every SNR point.  That is the mechanism-faithful
reference, but it is the last scalar hot path in the repository and it
cannot express the paper's receiver ablations (double-threshold comparator,
the 3.2x sampling-rate rule, Saiyan against the PLoRa/Aloba/envelope
baselines) as one declarative experiment.

This module makes the waveform path a first-class batch subsystem:

* :class:`WaveformSweepSpec` — a declarative grid of receivers x SNRs.  A
  receiver arm is a :class:`ReceiverSpec`: any Saiyan configuration (mode,
  SF, bandwidth, bits per chirp, oversampling, comparator sampling-rate
  factor) or one of the four baseline receivers from :mod:`repro.baselines`,
  all behind the common :class:`WaveformReceiver` protocol.
* :class:`SaiyanBurstKernel` — the in-process vectorized hot path: all
  bursts of one measurement are synthesised from a symbol-waveform table and
  pushed through the analog front end as *stacked* array operations (batched
  FFT for the SAW response, batched FIR for the IF/LPF stages), then decided
  through the exact per-window decision code of the serial demodulator.
* :func:`run_sweep` — evaluates a spec either in process or sharded across
  worker processes.  Sharded runs submit to the persistent warm pool of the
  execution fabric (:mod:`repro.sim.execution`) by default, so consecutive
  sweeps reuse live workers — and those workers keep their receiver, FIR
  and template-bank plan caches warm across submissions.

RNG discipline (the PR 1/PR 2 substream contract, extended per shard): the
root seed is split with ``Generator.spawn`` into **one substream per grid
cell**, in receiver-major / SNR-minor order.  Shards receive their cells'
substreams, so the shard count can never change a number.  For a
single-receiver Saiyan sweep the cell substreams are exactly the per-point
substreams of the serial :func:`repro.sim.waveform_ber.snr_sweep`, and
within a cell the kernel draws the same per-burst blocks in the same order
(symbols, channel AWGN, LNA noise) — which is why serial sweep, sharded
engine and vectorized kernel are **bit-identical** under a fixed seed.

Precision modes: the default ``precision="reference"`` keeps every front-end
operation in float64/complex128 and is covered by the bit-parity contract
above.  ``precision="fast"`` is an opt-in complex64/float32 hot path for the
Saiyan burst kernel — the same per-burst draws (so results are comparable
point by point), but single-precision front-end arithmetic, FFT-convolution
FIR stages and one batched template-correlation GEMM for the decision
stage.  It is *tolerance-gated*, never bit-identical: equivalence against
the reference path is pinned by tests with explicit error-rate bounds.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.baselines.aloba import AlobaDetector
from repro.baselines.envelope_receiver import ConventionalEnvelopeReceiver
from repro.baselines.plora import PLoRaDetector
from repro.constants import PREAMBLE_UPCHIRPS, THERMAL_NOISE_DBM_PER_HZ
from repro.core.config import SaiyanConfig, SaiyanMode
from repro.dsp.chirp import lora_downchirp
from repro.dsp.filters import (
    apply_fir_stack,  # noqa: F401 - unused; perfbench's tracer looks it up here
    apply_fir_stack_fast,
    apply_fir_stack_gapped,
    apply_frequency_gain_stack,
    fir_bandpass,
    fir_lowpass,
    frequency_gain_profile,
)
from repro.dsp.noise import awgn_sample_pairs, awgn_samples
from repro.dsp.signals import Signal
from repro.exceptions import ConfigurationError
from repro.lora.modulation import LoRaModulator
from repro.lora.parameters import DownlinkParameters, LoRaParameters
from repro.sim.metrics import SeriesResult, SweepResult
from repro.sim.waveform_ber import (
    WaveformBerPoint,
    _build_demodulator,
    count_bit_errors,
    measure_symbol_errors,
)
from repro.utils.plans import PlanCache, freeze_array
from repro.utils.rng import RandomState, as_rng
from repro.utils.units import db_to_linear, dbm_to_watts
from repro.utils.validation import ensure_integer

#: Receiver kinds accepted by :class:`ReceiverSpec`.
RECEIVER_KINDS: tuple[str, ...] = ("saiyan", "standard_lora", "plora", "aloba", "envelope")

#: Numeric precisions of the burst kernel.  ``"reference"`` (float64) is the
#: bit-parity path; ``"fast"`` (complex64/float32) is tolerance-gated.
PRECISIONS: tuple[str, ...] = ("reference", "fast")

#: Byte budget of one fused mega-batch chunk, counting the staged complex
#: rows, the gapped FIR buffers and the front end's FFT temporaries
#: (conservatively ~80 bytes per staged sample).  96 MiB keeps the whole
#: 96-point benchmark sweep in one pass while bounding peak memory.
_MEGA_STACK_BYTES: int = 96 * 1024 * 1024

#: Mutable structure-of-arrays workspaces of the fused mega-batch path,
#: keyed by (config, precision, rows, row length).  A *scratch* cache in the
#: sense of :mod:`repro.utils.plans`: the cached contract is the buffer
#: layout, not the contents — every staged row is fully overwritten before
#: the front end reads it, and the zero-gap columns of the FIR buffers are
#: written at build time and never touched again.  Reusing the buffers
#: across chunks and sweeps avoids the large-allocation + first-touch page
#: fault cost that dominated per-call staging.  Borrowed via
#: checkout/checkin (never ``get``): the serve layer's worker threads run
#: whole sweeps concurrently, and two same-shaped sweeps sharing one
#: staging buffer would silently corrupt each other's floats.
_STACK_WORKSPACES = PlanCache("stacked-workspaces", maxsize=8, mutable=True)

#: Per-(config, burst length) front-end workspaces — SAW gain profile, input
#: mixer clock samples, output mixer clock row — shared by every kernel of
#: the same configuration (and, through fork, inherited by pool workers).
#: All three are deterministic functions of the config (the kernel refuses
#: non-zero impairments, and the oscillator is ideal under every
#: SaiyanConfig), so a cache hit returns the same floats a rebuild would.
_WORKSPACE_CACHE = PlanCache("fft-workspaces", maxsize=64)


def _draw_noisy_burst(rng: np.random.Generator, table: np.ndarray, alphabet: int,
                      burst: int, snr_db: float) -> tuple[np.ndarray, np.ndarray]:
    """Draw one burst's symbols and noisy waveform from ``rng``.

    The single batch-side definition of the per-burst draw sequence —
    symbol block, then channel AWGN sized from the measured waveform
    power — which must mirror ``measure_symbol_errors`` (symbol table
    indexing equals ``modulate_symbols``; the power/noise expressions equal
    ``add_awgn_snr``) draw for draw, or the serial==kernel bit-parity
    contract breaks.  The parity battery in
    ``tests/sim/test_waveform_engine.py`` pins the pair.
    """
    tx = rng.integers(0, alphabet, size=burst)
    row = table[tx].reshape(-1)
    signal_power = float(np.mean(np.abs(row) ** 2))
    noise_power = float(signal_power / db_to_linear(snr_db))
    noisy = awgn_samples(row.size, noise_power, complex_valued=True,
                         random_state=rng)
    # In-place add into the freshly drawn noise buffer: same floats as
    # ``row + noise`` without a third full-row allocation on the hot path.
    np.add(row, noisy, out=noisy)
    return tx, noisy


# ---------------------------------------------------------------------------
# Grid cells and the receiver protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveformCell:
    """Outcome of one (receiver, SNR) grid cell.

    Demodulating receivers fill the symbol/bit counters; detection-only
    receivers fill ``trials``/``detections``.  Counters are integers, so two
    engines agreeing on a cell means they made identical decisions.
    """

    receiver: str
    snr_db: float
    symbols: int = 0
    symbol_errors: int = 0
    bits: int = 0
    bit_errors: int = 0
    trials: int = 0
    detections: int = 0

    @property
    def symbol_error_rate(self) -> float:
        """Fraction of symbols decoded incorrectly."""
        return self.symbol_errors / self.symbols if self.symbols else 0.0

    @property
    def bit_error_rate(self) -> float:
        """Fraction of bits decoded incorrectly."""
        return self.bit_errors / self.bits if self.bits else 0.0

    @property
    def detection_rate(self) -> float:
        """Fraction of detection trials that declared a packet."""
        return self.detections / self.trials if self.trials else 0.0


@runtime_checkable
class WaveformReceiver(Protocol):
    """The contract every receiver arm of a waveform sweep implements."""

    name: str
    measures_symbols: bool

    def measure(self, snr_db: float, *, num_symbols: int, symbols_per_burst: int,
                random_state: RandomState, engine: str = "batch") -> WaveformCell:
        """Evaluate one grid cell at ``snr_db``."""
        ...  # pragma: no cover - protocol signature


# ---------------------------------------------------------------------------
# Receiver specification (declarative, picklable)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReceiverSpec:
    """One receiver arm of a :class:`WaveformSweepSpec`.

    ``kind="saiyan"`` selects the Saiyan pipeline with the given mode and
    air interface; the other kinds select the corresponding baseline
    receiver from :mod:`repro.baselines` operating on the same SF/BW and
    oversampling.
    """

    kind: str = "saiyan"
    mode: SaiyanMode = SaiyanMode.SUPER
    spreading_factor: int = 7
    bandwidth_hz: float = 500e3
    bits_per_chirp: int = 2
    oversampling: int = 4
    sampling_safety_factor: float | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in RECEIVER_KINDS:
            raise ConfigurationError(
                f"unknown receiver kind {self.kind!r}; expected one of {RECEIVER_KINDS}")
        if not isinstance(self.mode, SaiyanMode):
            raise ConfigurationError(f"mode must be a SaiyanMode, got {self.mode!r}")
        # Air-interface validation is delegated to the parameter classes.
        self.downlink()

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Series/registry name of this receiver arm."""
        if self.label is not None:
            return self.label
        if self.kind == "saiyan":
            return f"saiyan-{self.mode.value}"
        return self.kind

    @property
    def measures_symbols(self) -> bool:
        """Whether this arm demodulates payload symbols (vs detection only)."""
        return self.kind in ("saiyan", "standard_lora")

    def downlink(self) -> DownlinkParameters:
        """The downlink air interface of this arm."""
        return DownlinkParameters(spreading_factor=self.spreading_factor,
                                  bandwidth_hz=self.bandwidth_hz,
                                  bits_per_chirp=self.bits_per_chirp)

    def config(self) -> SaiyanConfig:
        """The Saiyan configuration of a ``kind="saiyan"`` arm."""
        if self.kind != "saiyan":
            raise ConfigurationError(f"receiver kind {self.kind!r} has no SaiyanConfig")
        return SaiyanConfig(downlink=self.downlink(), mode=self.mode,
                            oversampling=self.oversampling,
                            sampling_safety_factor=self.sampling_safety_factor)

    def build(self, *, precision: str = "reference") -> "WaveformReceiver":
        """Instantiate the receiver behind this spec.

        ``precision`` selects the burst-kernel arithmetic of Saiyan arms;
        the baseline receivers are precision-agnostic and ignore it.
        """
        if precision not in PRECISIONS:
            raise ConfigurationError(
                f"unknown precision {precision!r}; expected one of {PRECISIONS}")
        if self.kind == "saiyan":
            return _SaiyanWaveformReceiver(self, precision=precision)
        if self.kind == "standard_lora":
            return _StandardLoRaWaveformReceiver(self)
        return _DetectionWaveformReceiver(self)


# ---------------------------------------------------------------------------
# The vectorized Saiyan burst kernel
# ---------------------------------------------------------------------------

class SaiyanBurstKernel:
    """Vectorized, bit-identical replacement for ``measure_symbol_errors``.

    All per-configuration state that the serial path rebuilds at every SNR
    point — the symbol-waveform table, the correlation templates, the SAW
    gain profile, the FIR taps of the IF/LPF stages, the mixer clocks — is
    computed once here.  ``measure`` then draws the same per-burst RNG
    blocks as the serial loop (symbols, channel AWGN, LNA noise, in that
    order), evaluates the whole front end as stacked array operations
    (batched FFT/FIR apply each row exactly as the 1-D ops would), and
    decides the whole stack with the demodulator's ``decide_stack`` — the
    array code the serial ``decide_envelope`` runs with one row — so the
    error counts are bit-identical to the serial reference under a fixed
    seed.
    """

    def __init__(self, config: SaiyanConfig, *, precision: str = "reference") -> None:
        if not isinstance(config, SaiyanConfig):
            raise ConfigurationError(f"expected a SaiyanConfig, got {type(config).__name__}")
        if precision not in PRECISIONS:
            raise ConfigurationError(
                f"unknown precision {precision!r}; expected one of {PRECISIONS}")
        self.precision = precision
        self._fast = precision == "fast"
        self.config = config
        self.demodulator = _build_demodulator(config)
        self.modulator = LoRaModulator(config.downlink, oversampling=config.oversampling)
        self._table = self.modulator.symbol_waveform_table()
        self._alphabet = config.downlink.alphabet_size
        self._bits_per_symbol = config.downlink.bits_per_chirp
        self._sps = self.modulator.samples_per_symbol
        self._fs = self.modulator.sample_rate

        frontend = self.demodulator.frontend
        impairments = frontend.impairments
        if (impairments.dc_offset or impairments.flicker_noise_power > 0
                or impairments.detector_noise_rms > 0):
            # Non-zero impairments draw RNG inside the shifter; the batched
            # pipeline does not reorder those draws, so refuse rather than
            # silently break the bit-parity contract.
            raise ConfigurationError(
                "SaiyanBurstKernel requires the default zero baseband impairments")
        shifter = frontend.cyclic_shifter
        self._shifter = shifter
        self._uses_frequency_shift = config.mode.uses_frequency_shift
        nyquist = self._fs / 2.0
        if shifter.if_offset_hz + shifter.envelope_bandwidth_hz >= nyquist:
            raise ConfigurationError(
                "sample rate too low for the configured IF: need "
                f"fs/2 > {shifter.if_offset_hz + shifter.envelope_bandwidth_hz} Hz, "
                f"got {nyquist} Hz"
            )

        lna = frontend.lna
        self._lna_amplitude_gain = np.sqrt(db_to_linear(lna.gain_db))
        noise_density_dbm = THERMAL_NOISE_DBM_PER_HZ + lna.noise_figure_db
        noise_power_w = float(dbm_to_watts(noise_density_dbm)) * self._fs
        self._lna_noise_power = noise_power_w * db_to_linear(lna.gain_db)

        self._conversion_gain = shifter.detector.conversion_gain
        self._feedthrough = shifter.feedthrough
        self._if_gain = np.sqrt(db_to_linear(shifter.if_gain_db))
        self._mix_phase = shifter.delay_line.phase_shift_rad(shifter.if_offset_hz)
        self._mix_loss = np.sqrt(db_to_linear(-shifter.output_mixer.conversion_loss_db))
        if self._uses_frequency_shift:
            self._bp_taps = fir_bandpass(
                shifter.if_offset_hz - shifter.envelope_bandwidth_hz,
                shifter.if_offset_hz + shifter.envelope_bandwidth_hz,
                self._fs)
        else:
            self._bp_taps = None
        # Both the cyclic-shifting and the direct path low-pass at the
        # shifter's envelope bandwidth (transparent above Nyquist).
        self._lp_transparent = shifter.envelope_bandwidth_hz >= nyquist
        self._lp_taps = (None if self._lp_transparent
                         else fir_lowpass(shifter.envelope_bandwidth_hz, self._fs))
        if self._fast:
            self._bp_taps32 = (None if self._bp_taps is None
                               else self._bp_taps.astype(np.float32))
            self._lp_taps32 = (None if self._lp_taps is None
                               else self._lp_taps.astype(np.float32))
            self._table32 = self._table.astype(np.complex64)
            # All scalar gains downstream of the envelope detector commute
            # with the linear FIR stages, so the fast path applies their
            # product once at the end of the chain.
            if self._uses_frequency_shift:
                self._fast_output_gain = np.float32(
                    self._conversion_gain * self._if_gain * self._mix_loss)
            else:
                self._fast_output_gain = np.float32(self._conversion_gain)
        self._saw_gain_fn = frontend.saw_filter.gain_linear
        # Single-precision casts of the per-length workspaces and template
        # bank, built lazily by the ``precision="fast"`` path only.
        self._fast_length_cache: dict[int, tuple[np.ndarray, np.ndarray,
                                                 np.ndarray | None]] = {}
        self._templates32: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _profiles(self, length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The (SAW gains, CLK_in samples, CLK_out row) workspace for ``length``.

        Deterministic per (config, length), so it lives in the fabric-wide
        :data:`_WORKSPACE_CACHE` — every kernel instance of the same
        configuration (including re-built receivers in pool workers) shares
        one read-only copy.
        """

        def build() -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
            gains = frequency_gain_profile(length, self._fs, self._saw_gain_fn,
                                           complex_input=True)
            clk_in = np.asarray(self._shifter.oscillator.generate(
                length / self._fs, self._fs).samples)[:length]
            clk_out = None
            if self._uses_frequency_shift:
                t = np.arange(length) / self._fs
                clk_out = freeze_array(np.cos(
                    2 * np.pi * self._shifter.if_offset_hz * t + self._mix_phase))
            return (freeze_array(gains), freeze_array(clk_in), clk_out)

        return _WORKSPACE_CACHE.get((self.config, length), build)

    def _fast_profiles(self, length: int) -> tuple[np.ndarray, np.ndarray,
                                                   np.ndarray | None]:
        """Float32 casts of the workspace, with the mixer feedthrough folded
        into the CLK_in row so the hot loop multiplies one vector."""
        cached = self._fast_length_cache.get(length)
        if cached is None:
            gains, clk_in, clk_out = self._profiles(length)
            mix_in = (self._feedthrough + clk_in).astype(np.float32)
            cached = (gains.astype(np.float32), mix_in,
                      None if clk_out is None else clk_out.astype(np.float32))
            self._fast_length_cache[length] = cached
        return cached

    def _envelopes_fast(self, noisy: np.ndarray, lna_noise: np.ndarray) -> np.ndarray:
        """Single-precision front end: same chain, complex64/float32 math.

        The per-burst RNG draws happen upstream in float64 (identical order
        to the reference path) and are cast here, so a fast run is
        point-for-point comparable with — but not bit-identical to — the
        reference run.  FIR stages use FFT convolution
        (:func:`~repro.dsp.filters.apply_fir_stack_fast`) because
        ``lfilter`` upcasts to double.
        """
        length = noisy.shape[1]
        gains32, mix_in32, clk_out32 = self._fast_profiles(length)
        noisy32 = np.asarray(noisy, dtype=np.complex64)
        lna32 = np.asarray(lna_noise, dtype=np.complex64)
        # The FFT output is owned by this frame, so the elementwise chain
        # runs in place; scalar gains are fused into one final multiply
        # (they commute with the linear FIR stages).
        chain = apply_frequency_gain_stack(noisy32, gains32)
        chain *= np.float32(self._lna_amplitude_gain)
        chain += lna32
        if self._uses_frequency_shift:
            chain *= mix_in32[None, :]
            detected = np.abs(chain)
            np.multiply(detected, detected, out=detected)
            if_signal = apply_fir_stack_fast(detected, self._bp_taps32)
            if_signal *= clk_out32[None, :]
            envelopes = (if_signal if self._lp_transparent
                         else apply_fir_stack_fast(if_signal, self._lp_taps32))
        else:
            detected = np.abs(chain)
            np.multiply(detected, detected, out=detected)
            envelopes = (detected if self._lp_transparent
                         else apply_fir_stack_fast(detected, self._lp_taps32))
        envelopes *= self._fast_output_gain
        return np.maximum(envelopes, np.float32(0.0), out=envelopes)

    def _decide_correlation_stack(self, envelopes: np.ndarray,
                                  burst: int) -> np.ndarray:
        """Batched template-correlation decisions (fast path only).

        One float32 GEMM scores every window of every burst row at once —
        numerically close to the per-window matvec of
        ``CorrelationDemodulator.demodulate`` but *not* bitwise-identical
        (BLAS gemm rounds differently), which is exactly why the reference
        path never uses it.  The zero-energy convention (all-zero window ->
        symbol 0) matches the serial scorer.
        """
        correlator = self.demodulator.correlator
        if self._templates32 is None:
            self._templates32 = correlator.templates.astype(np.float32)
        n = correlator.samples_per_symbol
        windows = np.ascontiguousarray(
            envelopes[:, : n * burst]).reshape(-1, n).astype(np.float32, copy=False)
        centered = windows - windows.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(centered, axis=1)
        scaled = centered / np.where(norms > 0, norms, 1.0)[:, None]
        scores = scaled @ self._templates32.T
        decided = np.argmax(scores, axis=1).astype(np.int64)
        return decided.reshape(envelopes.shape[0], burst)

    def _burst_plan(self, num_symbols: int, symbols_per_burst: int) -> list[int]:
        plan: list[int] = []
        remaining = num_symbols
        while remaining > 0:
            burst = min(symbols_per_burst, remaining)
            plan.append(burst)
            remaining -= burst
        return plan

    def prepare(self, num_symbols: int, symbols_per_burst: int) -> None:
        """Warm the per-length caches for a given burst plan.

        Called by the sharded engine in the parent process before forking,
        so worker processes inherit the precomputed profiles for free.
        """
        for burst in set(self._burst_plan(num_symbols, symbols_per_burst)):
            self._profiles(burst * self._sps)

    # ------------------------------------------------------------------
    def _stack_workspace(self, rows: int, length: int) -> dict:
        """Borrow the fused staging buffers for a ``(rows, length)`` stack.

        Lives in the fabric-wide mutable :data:`_STACK_WORKSPACES` cache so
        consecutive chunks (and consecutive sweeps of the same shape) reuse
        warm, already-paged buffers.  The zero gap columns of the FIR
        buffers are part of the layout contract: they are zeroed once here
        and the consumers only ever write the ``[:, :length]`` region.

        The borrow is *exclusive* (checkout removes the cache entry): a
        concurrent same-shaped sweep on another thread builds its own
        buffers rather than racing on these.  Pair every call with
        :meth:`_release_workspace` once the chunk's envelopes are decided.
        """

        def build() -> dict:
            ws: dict = {"scratch": np.empty(4 * length)}
            if self._fast:
                ws["signal32"] = np.empty((rows, length), dtype=np.complex64)
                ws["lna32"] = np.empty((rows, length), dtype=np.complex64)
                ws["noise_a"] = np.empty(length, dtype=np.complex128)
                ws["noise_b"] = np.empty(length, dtype=np.complex128)
                return ws
            ws["signal"] = np.empty((rows, length), dtype=np.complex128)
            ws["lna"] = np.empty((rows, length), dtype=np.complex128)
            if self._uses_frequency_shift:
                ws["gap_bp"] = np.zeros((rows, length + self._bp_taps.size - 1))
            if not self._lp_transparent:
                ws["gap_lp"] = np.zeros((rows, length + self._lp_taps.size - 1))
            elif not self._uses_frequency_shift:
                ws["detected"] = np.empty((rows, length))
            return ws

        return _STACK_WORKSPACES.checkout(
            (self.config, self.precision, rows, length), build)

    def _release_workspace(self, rows: int, length: int, ws: dict) -> None:
        """Check a :meth:`_stack_workspace` borrow back in for reuse."""
        _STACK_WORKSPACES.checkin(
            (self.config, self.precision, rows, length), ws)

    def _frontend_fused(self, ws: dict, length: int) -> np.ndarray:
        """Reference front end over the staged workspace, in place.

        Runs the serial pipeline's float64 chain on the staged
        ``signal``/``lna`` stacks: the FFT/elementwise/FIR stages all apply
        per row, in-place elementwise chains equal their out-of-place
        spellings bit for bit, scalar multiplies commute, and
        :func:`~repro.dsp.filters.apply_fir_stack_gapped` repairs the flat
        convolution back to the bits of the ``lfilter`` reference
        (:func:`~repro.dsp.filters.apply_fir_stack`).  The decided counters
        equal the serial ``measure_symbol_errors`` bit for bit
        (``tests/sim/test_mega_batch.py``).
        """
        gains, clk_in, clk_out = self._profiles(length)
        after_saw = apply_frequency_gain_stack(ws["signal"], gains)
        np.multiply(after_saw, self._lna_amplitude_gain, out=after_saw)
        np.add(after_saw, ws["lna"], out=after_saw)
        if self._uses_frequency_shift:
            mix_in = self._feedthrough + clk_in
            np.multiply(after_saw, mix_in[None, :], out=after_saw)
            detected = ws["gap_bp"][:, :length]
            np.abs(after_saw, out=detected)
            np.multiply(detected, detected, out=detected)
            np.multiply(detected, self._conversion_gain, out=detected)
            if_signal = apply_fir_stack_gapped(ws["gap_bp"], self._bp_taps, length)
            np.multiply(if_signal, self._if_gain, out=if_signal)
            if self._lp_transparent:
                np.multiply(if_signal, clk_out[None, :], out=if_signal)
                np.multiply(if_signal, self._mix_loss, out=if_signal)
                envelopes = if_signal
            else:
                back = ws["gap_lp"][:, :length]
                np.multiply(if_signal, clk_out[None, :], out=back)
                np.multiply(back, self._mix_loss, out=back)
                envelopes = apply_fir_stack_gapped(ws["gap_lp"], self._lp_taps,
                                                   length)
        else:
            detected = (ws["detected"] if self._lp_transparent
                        else ws["gap_lp"][:, :length])
            np.abs(after_saw, out=detected)
            np.multiply(detected, detected, out=detected)
            np.multiply(detected, self._conversion_gain, out=detected)
            envelopes = (detected if self._lp_transparent
                         else apply_fir_stack_gapped(ws["gap_lp"], self._lp_taps,
                                                     length))
        return np.maximum(envelopes, 0.0, out=envelopes)

    def _count_errors_fused(self, envelopes: np.ndarray, burst: int,
                            owners: list[int], tx_list: list[np.ndarray],
                            symbol_errors: list[int],
                            bit_errors: list[int]) -> None:
        """Decision stage of one fused group, accumulating into the counters.

        One stack call decides every window of every row: the demodulator's
        array decision stage (:meth:`decide_stack`, which the scalar
        ``decide_envelope`` runs with one row), or on the fast path's
        correlation modes the float32 GEMM of
        :meth:`_decide_correlation_stack`.
        """
        if self._fast and self.config.mode.uses_correlation:
            decided_rows = self._decide_correlation_stack(envelopes, burst)
        else:
            decided_rows = self.demodulator.decide_stack(envelopes, self._fs, burst)
        for owner, tx, decided in zip(owners, tx_list, decided_rows):
            symbol_errors[owner] += int(np.sum(decided != tx))
            bit_errors[owner] += count_bit_errors(tx, decided,
                                                  self._bits_per_symbol)

    def _measure_chunk_fused(self, chunk: range, groups: dict, plan: list[int],
                             snrs_db: Sequence[float],
                             streams: Sequence[RandomState],
                             symbol_errors: list[int],
                             bit_errors: list[int]) -> None:
        """Stage, evaluate and decide one chunk of cells (buffers borrowed)."""
        cursors = {burst: 0 for burst in groups}
        for cell_index in chunk:
            rng = as_rng(streams[cell_index])
            snr_db = snrs_db[cell_index]
            for burst in plan:
                ws, owners, tx_list = groups[burst]
                r = cursors[burst]
                cursors[burst] = r + 1
                if self._fast:
                    tx = rng.integers(0, self._alphabet, size=burst)
                    row = self._table32[tx].reshape(-1)
                    signal_power = float(np.mean(np.abs(row) ** 2))
                    noise_power = float(signal_power / db_to_linear(snr_db))
                    awgn_sample_pairs(row.size, noise_power,
                                      self._lna_noise_power,
                                      random_state=rng,
                                      out_a=ws["noise_a"],
                                      out_b=ws["noise_b"],
                                      scratch=ws["scratch"])
                    # Assigning complex128 rows into the complex64 stack
                    # applies the same cast as ``astype(np.complex64)``.
                    ws["signal32"][r] = ws["noise_a"]
                    ws["signal32"][r] += row
                    ws["lna32"][r] = ws["noise_b"]
                else:
                    tx = rng.integers(0, self._alphabet, size=burst)
                    row = self._table[tx].reshape(-1)
                    signal_power = float(np.mean(np.abs(row) ** 2))
                    noise_power = float(signal_power / db_to_linear(snr_db))
                    awgn_sample_pairs(row.size, noise_power,
                                      self._lna_noise_power,
                                      random_state=rng,
                                      out_a=ws["signal"][r],
                                      out_b=ws["lna"][r],
                                      scratch=ws["scratch"])
                    np.add(row, ws["signal"][r], out=ws["signal"][r])
                owners.append(cell_index)
                tx_list.append(tx)
        for burst, (ws, owners, tx_list) in groups.items():
            if self._fast:
                envelopes = self._envelopes_fast(ws["signal32"], ws["lna32"])
            else:
                envelopes = self._frontend_fused(ws, burst * self._sps)
            self._count_errors_fused(envelopes, burst, owners, tx_list,
                                     symbol_errors, bit_errors)

    # ------------------------------------------------------------------
    def measure_cells(self, snrs_db: Sequence[float],
                      streams: Sequence[RandomState], *, num_symbols: int = 64,
                      symbols_per_burst: int = 16) -> list[WaveformBerPoint]:
        """Measure many SNR cells at once, stacking their bursts.

        Each cell draws from its own generator in the exact serial order
        (symbols, channel AWGN, LNA noise, burst after burst), then all
        bursts of the same length — across every cell — go through the
        front end as one stack.  Cells are RNG-independent, so stacking
        across them cannot change any draw.

        Per chunk of cells, every burst row is drawn directly into the
        preallocated structure-of-arrays workspaces (channel + LNA noise
        merged into one generator block per burst via
        :func:`~repro.dsp.noise.awgn_sample_pairs` — bit-identical to the
        two sequential draws), then each burst-length group runs one
        front-end pass and one decision sweep.
        """
        num_symbols = ensure_integer(num_symbols, "num_symbols", minimum=1)
        symbols_per_burst = ensure_integer(symbols_per_burst, "symbols_per_burst",
                                           minimum=1)
        if len(snrs_db) != len(streams):
            raise ConfigurationError("snrs_db and streams lengths differ")
        plan = self._burst_plan(num_symbols, symbols_per_burst)
        symbol_errors = [0] * len(snrs_db)
        bit_errors = [0] * len(snrs_db)
        counts: dict[int, int] = {}
        for burst in plan:
            counts[burst] = counts.get(burst, 0) + 1
        per_cell_bytes = sum(burst * self._sps * 80 for burst in plan)
        cells_per_chunk = max(1, _MEGA_STACK_BYTES // max(per_cell_bytes, 1))
        for chunk_start in range(0, len(snrs_db), cells_per_chunk):
            chunk = range(chunk_start,
                          min(chunk_start + cells_per_chunk, len(snrs_db)))
            groups = {burst: (self._stack_workspace(count * len(chunk),
                                                    burst * self._sps),
                              [], [])
                      for burst, count in counts.items()}
            try:
                self._measure_chunk_fused(chunk, groups, plan, snrs_db,
                                          streams, symbol_errors, bit_errors)
            finally:
                # Hand every exclusive borrow back even if a cell raises,
                # so the buffers stay warm for the next chunk/sweep.
                for burst, (ws, _, _) in groups.items():
                    self._release_workspace(counts[burst] * len(chunk),
                                            burst * self._sps, ws)
        return [WaveformBerPoint(snr_db=float(snr_db), symbols=num_symbols,
                                 symbol_errors=symbol_errors[i],
                                 bits=num_symbols * self._bits_per_symbol,
                                 bit_errors=bit_errors[i])
                for i, snr_db in enumerate(snrs_db)]

    def measure(self, snr_db: float, *, num_symbols: int = 64,
                symbols_per_burst: int = 16,
                random_state: RandomState = None) -> WaveformBerPoint:
        """Vectorized counterpart of :func:`~repro.sim.waveform_ber.measure_symbol_errors`."""
        return self.measure_cells([float(snr_db)], [random_state],
                                  num_symbols=num_symbols,
                                  symbols_per_burst=symbols_per_burst)[0]


# ---------------------------------------------------------------------------
# Receiver adapters
# ---------------------------------------------------------------------------

class _SaiyanWaveformReceiver:
    """Saiyan pipeline behind the :class:`WaveformReceiver` protocol."""

    measures_symbols = True

    def __init__(self, spec: ReceiverSpec, *, precision: str = "reference") -> None:
        self.name = spec.name
        self.config = spec.config()
        self.precision = precision
        self._kernel: SaiyanBurstKernel | None = None

    @property
    def kernel(self) -> SaiyanBurstKernel:
        """The lazily constructed vectorized burst kernel."""
        if self._kernel is None:
            self._kernel = SaiyanBurstKernel(self.config, precision=self.precision)
        return self._kernel

    def prepare(self, num_symbols: int, symbols_per_burst: int) -> None:
        """Build the kernel and its length caches ahead of a fork."""
        self.kernel.prepare(num_symbols, symbols_per_burst)

    def _cell(self, point: WaveformBerPoint) -> WaveformCell:
        return WaveformCell(receiver=self.name, snr_db=point.snr_db,
                            symbols=point.symbols, symbol_errors=point.symbol_errors,
                            bits=point.bits, bit_errors=point.bit_errors)

    def measure_cells(self, snrs_db: Sequence[float], streams: Sequence[RandomState],
                      *, num_symbols: int, symbols_per_burst: int) -> list[WaveformCell]:
        """Batch path: all cells' bursts stacked through one kernel pass."""
        points = self.kernel.measure_cells(snrs_db, streams, num_symbols=num_symbols,
                                           symbols_per_burst=symbols_per_burst)
        return [self._cell(point) for point in points]

    def measure(self, snr_db: float, *, num_symbols: int, symbols_per_burst: int,
                random_state: RandomState, engine: str = "batch") -> WaveformCell:
        if engine == "serial":
            if self.precision != "reference":
                raise ConfigurationError(
                    "the serial reference loop is float64-only; "
                    "precision='fast' requires the batch engine")
            point = measure_symbol_errors(self.config, float(snr_db),
                                          num_symbols=num_symbols,
                                          symbols_per_burst=symbols_per_burst,
                                          random_state=random_state)
        else:
            point = self.kernel.measure(float(snr_db), num_symbols=num_symbols,
                                        symbols_per_burst=symbols_per_burst,
                                        random_state=random_state)
        return self._cell(point)


class _StandardLoRaWaveformReceiver:
    """Commodity FFT receiver on the same downlink chirps (stacked dechirp)."""

    measures_symbols = True

    def __init__(self, spec: ReceiverSpec) -> None:
        self.name = spec.name
        downlink = spec.downlink()
        self._modulator = LoRaModulator(downlink, oversampling=spec.oversampling)
        self._table = self._modulator.symbol_waveform_table()
        self._alphabet = downlink.alphabet_size
        self._bits_per_symbol = downlink.bits_per_chirp
        self._sps = self._modulator.samples_per_symbol
        self._chips = 2 ** downlink.spreading_factor
        oversampling = spec.oversampling
        self._downchirp = np.asarray(lora_downchirp(
            downlink.spreading_factor, downlink.bandwidth_hz,
            self._modulator.sample_rate).samples)[: self._sps]
        bins = np.arange(self._chips)
        self._bins_low = bins % self._sps
        self._bins_high = (bins + self._chips * (oversampling - 1)) % self._sps

    def _decide_stack(self, windows: np.ndarray) -> np.ndarray:
        """Stacked dechirp-FFT decisions, row-identical to ``demodulate_symbol``."""
        dechirped = windows * self._downchirp[None, :]
        spectrum = np.abs(np.fft.fft(dechirped, axis=1))
        folded = spectrum[:, self._bins_low] + spectrum[:, self._bins_high]
        raw = np.argmax(folded, axis=1)
        if self._alphabet != self._chips:
            step = self._chips / self._alphabet
            raw = np.round(raw / step).astype(np.int64) % self._alphabet
        return raw.astype(np.int64)

    def measure(self, snr_db: float, *, num_symbols: int, symbols_per_burst: int,
                random_state: RandomState, engine: str = "batch") -> WaveformCell:
        del engine  # single implementation; deterministic either way
        num_symbols = ensure_integer(num_symbols, "num_symbols", minimum=1)
        symbols_per_burst = ensure_integer(symbols_per_burst, "symbols_per_burst",
                                           minimum=1)
        rng = as_rng(random_state)
        symbol_errors = bit_errors = 0
        remaining = num_symbols
        while remaining > 0:
            burst = min(symbols_per_burst, remaining)
            tx, noisy = _draw_noisy_burst(rng, self._table, self._alphabet,
                                          burst, float(snr_db))
            decided = self._decide_stack(noisy.reshape(burst, self._sps))
            symbol_errors += int(np.sum(decided != tx))
            bit_errors += count_bit_errors(tx, decided, self._bits_per_symbol)
            remaining -= burst
        return WaveformCell(receiver=self.name, snr_db=float(snr_db),
                            symbols=num_symbols, symbol_errors=symbol_errors,
                            bits=num_symbols * self._bits_per_symbol,
                            bit_errors=bit_errors)


class _DetectionWaveformReceiver:
    """PLoRa / Aloba / conventional-envelope packet detectors as sweep arms.

    Each trial synthesises two symbol times of silence (the noise-floor
    head the detectors calibrate against) followed by a standard LoRa
    preamble, adds AWGN at the requested preamble SNR, and asks the
    detector for its packet decision.
    """

    measures_symbols = False

    def __init__(self, spec: ReceiverSpec) -> None:
        self.name = spec.name
        parameters = LoRaParameters(spreading_factor=spec.spreading_factor,
                                    bandwidth_hz=spec.bandwidth_hz)
        if spec.kind == "plora":
            self._detector = PLoRaDetector(parameters, oversampling=spec.oversampling)
        elif spec.kind == "aloba":
            self._detector = AlobaDetector(parameters, oversampling=spec.oversampling)
        else:
            self._detector = ConventionalEnvelopeReceiver(parameters)
        self._kind = spec.kind
        modulator = LoRaModulator(parameters, oversampling=spec.oversampling)
        preamble = np.asarray(modulator.preamble_waveform(PREAMBLE_UPCHIRPS).samples)
        head = np.zeros(2 * modulator.samples_per_symbol, dtype=np.complex128)
        self._clean = np.concatenate([head, preamble])
        self._signal_power = float(np.mean(np.abs(preamble) ** 2))
        self._fs = modulator.sample_rate

    def _detect(self, waveform: Signal) -> bool:
        if self._kind == "envelope":
            return bool(self._detector.detect_energy(waveform))
        return bool(self._detector.detect(waveform))

    def measure(self, snr_db: float, *, num_symbols: int, symbols_per_burst: int,
                random_state: RandomState, engine: str = "batch") -> WaveformCell:
        del engine  # single implementation; deterministic either way
        num_symbols = ensure_integer(num_symbols, "num_symbols", minimum=1)
        symbols_per_burst = ensure_integer(symbols_per_burst, "symbols_per_burst",
                                           minimum=1)
        rng = as_rng(random_state)
        trials = max(num_symbols // symbols_per_burst, 1)
        noise_power = float(self._signal_power / db_to_linear(snr_db))
        detections = 0
        for _ in range(trials):
            noise = awgn_samples(self._clean.size, noise_power, complex_valued=True,
                                 random_state=rng)
            if self._detect(Signal(self._clean + noise, self._fs)):
                detections += 1
        return WaveformCell(receiver=self.name, snr_db=float(snr_db),
                            trials=trials, detections=detections)


# ---------------------------------------------------------------------------
# Sweep specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveformSweepSpec:
    """A declarative receiver x SNR waveform ablation grid."""

    name: str
    description: str = ""
    receivers: tuple[ReceiverSpec, ...] = (ReceiverSpec(),)
    snrs_db: tuple[float, ...] = (-18.0, -12.0, -6.0, 0.0, 6.0, 12.0)
    num_symbols: int = 64
    symbols_per_burst: int = 16
    seed: int | None = 0

    def __post_init__(self) -> None:
        if not self.receivers:
            raise ConfigurationError("a waveform sweep needs at least one receiver")
        if not all(isinstance(r, ReceiverSpec) for r in self.receivers):
            raise ConfigurationError("receivers must be ReceiverSpec instances")
        if not self.snrs_db:
            raise ConfigurationError("a waveform sweep needs at least one SNR point")
        ensure_integer(self.num_symbols, "num_symbols", minimum=1)
        ensure_integer(self.symbols_per_burst, "symbols_per_burst", minimum=1)
        names = [r.name for r in self.receivers]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"receiver names must be unique, got {names}")
        object.__setattr__(self, "snrs_db", tuple(float(s) for s in self.snrs_db))

    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Grid size: receivers x SNR points."""
        return len(self.receivers) * len(self.snrs_db)

    def cell_grid(self) -> list[tuple[int, int]]:
        """The (receiver_index, snr_index) cells in substream order.

        Receiver-major / SNR-minor: a single-receiver sweep assigns cell
        substream *i* to SNR point *i*, exactly like the serial
        :func:`~repro.sim.waveform_ber.snr_sweep`.
        """
        return [(ri, si) for ri in range(len(self.receivers))
                for si in range(len(self.snrs_db))]

    def with_(self, **kwargs) -> "WaveformSweepSpec":
        """Return a copy with some fields replaced."""
        return replace(self, **kwargs)


# ---------------------------------------------------------------------------
# The sharded engine
# ---------------------------------------------------------------------------

#: Built receivers keyed by ``(spec, precision)``.  ``run_sweep`` warms this
#: in the parent process before the fabric pool exists, so fork-started
#: workers inherit ready kernels (templates, waveform tables, FIR taps) for
#: free; workers built later cache their own receivers across submissions
#: because the fabric pool is persistent.  Receivers are stateless w.r.t.
#: measurements, so reuse can never change a result.  Bounded LRU: a long
#: multi-sweep session holds at most ``maxsize`` built receivers.
_RECEIVER_CACHE: PlanCache = PlanCache("waveform-receivers", maxsize=16)


def _cached_receiver(spec: ReceiverSpec,
                     precision: str = "reference") -> "WaveformReceiver":
    # Baseline arms are precision-agnostic; normalise their key so a fast
    # sweep does not duplicate them in the cache.
    key = (spec, precision if spec.kind == "saiyan" else "reference")
    return _RECEIVER_CACHE.get(key, lambda: spec.build(precision=precision))


def _evaluate_cells(spec: WaveformSweepSpec, engine: str,
                    indices: Sequence[int],
                    streams: Sequence[np.random.Generator],
                    precision: str = "reference"
                    ) -> list[tuple[int, WaveformCell]]:
    """Worker entry point: evaluate the given grid cells with their substreams.

    Cells are grouped by receiver so each shard builds a receiver (and its
    burst kernel) at most once, no matter how many of its SNR points it
    owns; a receiver's cells then run through the stacked batch path when
    available.
    """
    grid = spec.cell_grid()
    by_receiver: dict[int, list[tuple[int, np.random.Generator]]] = {}
    for index, stream in zip(indices, streams):
        receiver_index, _ = grid[index]
        by_receiver.setdefault(receiver_index, []).append((index, stream))
    results: list[tuple[int, WaveformCell]] = []
    for receiver_index, owned in by_receiver.items():
        receiver = _cached_receiver(spec.receivers[receiver_index], precision)
        if engine == "batch" and hasattr(receiver, "measure_cells"):
            snrs = [spec.snrs_db[grid[index][1]] for index, _ in owned]
            cells = receiver.measure_cells(
                snrs, [stream for _, stream in owned],
                num_symbols=spec.num_symbols,
                symbols_per_burst=spec.symbols_per_burst)
            results.extend((index, cell) for (index, _), cell in zip(owned, cells))
            continue
        for index, stream in owned:
            _, snr_index = grid[index]
            cell = receiver.measure(spec.snrs_db[snr_index],
                                    num_symbols=spec.num_symbols,
                                    symbols_per_burst=spec.symbols_per_burst,
                                    random_state=stream, engine=engine)
            results.append((index, cell))
    return results


@dataclass
class WaveformSweepResult:
    """All grid cells of one sweep evaluation, plus run metadata."""

    spec: WaveformSweepSpec
    cells: list[WaveformCell] = field(default_factory=list)
    seed: int | None = None
    engine: str = "batch"
    shards: int = 1
    precision: str = "reference"
    #: Per-cell result-store provenance, in cell order: ``"hit"`` /
    #: ``"miss"`` per cell, or ``None`` when the run did not consult a
    #: store (no store given, non-integer seed, or an uncacheable spec).
    store_provenance: tuple[str, ...] | None = None

    # ------------------------------------------------------------------
    @property
    def store_hits(self) -> int:
        """Cells served from the result store (0 without a store)."""
        provenance = self.store_provenance or ()
        return sum(1 for state in provenance if state == "hit")

    @property
    def store_misses(self) -> int:
        """Cells computed and persisted on this run (0 without a store)."""
        provenance = self.store_provenance or ()
        return sum(1 for state in provenance if state == "miss")
    def cells_for(self, receiver_name: str) -> list[WaveformCell]:
        """The SNR-ordered cells of one receiver arm."""
        names = [r.name for r in self.spec.receivers]
        if receiver_name not in names:
            raise ConfigurationError(
                f"no receiver named {receiver_name!r}; known: {names}")
        receiver_index = names.index(receiver_name)
        n_snrs = len(self.spec.snrs_db)
        start = receiver_index * n_snrs
        return self.cells[start: start + n_snrs]

    def to_sweep_result(self) -> SweepResult:
        """Flatten into a :class:`SweepResult` for the BatchRunner machinery."""
        result = SweepResult(title=f"Waveform sweep: {self.spec.name}")
        snrs = self.spec.snrs_db
        for receiver in self.spec.receivers:
            cells = self.cells_for(receiver.name)
            if receiver.measures_symbols:
                result.add_series(SeriesResult.from_arrays(
                    f"{receiver.name}_ser", snrs,
                    [cell.symbol_error_rate for cell in cells],
                    x_label="SNR (dB)", y_label="symbol error rate"))
                result.add_series(SeriesResult.from_arrays(
                    f"{receiver.name}_ber", snrs,
                    [cell.bit_error_rate for cell in cells],
                    x_label="SNR (dB)", y_label="BER"))
                result.add_scalar(f"{receiver.name}_ser_min",
                                  min(cell.symbol_error_rate for cell in cells))
                result.add_scalar(f"{receiver.name}_ser_max",
                                  max(cell.symbol_error_rate for cell in cells))
            else:
                result.add_series(SeriesResult.from_arrays(
                    f"{receiver.name}_detection", snrs,
                    [cell.detection_rate for cell in cells],
                    x_label="SNR (dB)", y_label="detection rate"))
                result.add_scalar(f"{receiver.name}_detection_max",
                                  max(cell.detection_rate for cell in cells))
        result.add_scalar("num_cells", self.spec.num_cells)
        result.add_scalar("num_symbols", self.spec.num_symbols)
        result.notes = self.spec.description or "Waveform-level receiver ablation."
        # Only keyed inputs may reach the payload: precision is part of the
        # store key, the engine and shard count are not (they never change
        # a number) and live on ``self``/the manifests instead.  The
        # reference tag is omitted so golden fixtures predating the
        # precision modes stay byte-for-byte unchanged.
        if self.precision != "reference":
            result.notes += f" [precision={self.precision}]"
        return result


def _resolve_cells_from_store(spec: WaveformSweepSpec, seed: int | None,
                              precision: str, store):
    """Look every grid cell up in ``store``; return (cells, keys, provenance).

    ``cells`` holds rehydrated :class:`WaveformCell` hits (``None`` where a
    cell must be computed); ``keys`` the per-cell (key, digest) pairs, or
    ``None`` when the run is not cacheable (no store, non-integer seed, or
    a spec the canonical encoding refuses).
    """
    cells: list[WaveformCell | None] = [None] * spec.num_cells
    if store is None or seed is None:
        return cells, None, None
    from repro.sim.store import UncacheableError, waveform_cell_key

    grid = spec.cell_grid()
    try:
        keys = []
        for index, (receiver_index, snr_index) in enumerate(grid):
            key = waveform_cell_key(
                spec.receivers[receiver_index], spec.snrs_db[snr_index],
                index, seed, num_symbols=spec.num_symbols,
                symbols_per_burst=spec.symbols_per_burst, precision=precision)
            keys.append((key, store.digest(key)))
    except UncacheableError:
        return cells, None, None
    provenance = ["miss"] * spec.num_cells
    for index, (key, digest) in enumerate(keys):
        payload = store.get(key, digest=digest)
        if payload is None:
            continue
        try:
            cells[index] = WaveformCell(**payload)
            provenance[index] = "hit"
        except TypeError:
            # Payload shape drifted (e.g. a field was renamed): miss.
            continue
    return cells, keys, provenance


def _sweep_units(spec: WaveformSweepSpec, pending: Sequence[int]) -> float:
    """Workload size of the pending cells, in analog samples to synthesise.

    The cost-model unit of the waveform engines: ``num_symbols`` chirps of
    ``2^SF * oversampling`` samples each per cell.  Coarse by design — the
    EWMA absorbs per-receiver constants; the unit only has to scale with
    the workload so one model covers small smoke grids and full sweeps.
    """
    grid = spec.cell_grid()
    units = 0.0
    for index in pending:
        receiver = spec.receivers[grid[index][0]]
        units += (spec.num_symbols * (2 ** receiver.spreading_factor)
                  * receiver.oversampling)
    return units


def run_sweep(spec: WaveformSweepSpec, *, random_state: RandomState = None,
              shards: int | str = 1, engine: str = "batch",
              precision: str = "reference", store=None) -> WaveformSweepResult:
    """Evaluate every cell of ``spec``, optionally sharded across processes.

    Parameters
    ----------
    spec:
        The receiver x SNR grid to evaluate.
    random_state:
        Seed/generator for the whole sweep; ``None`` falls back to
        ``spec.seed``.  The root generator is split into one substream per
        grid cell, so the result is independent of ``shards``.
    shards:
        Number of worker processes.  ``1`` evaluates in-process (no pool).
        ``"auto"`` resolves to ``min(usable_cores(), pending cells, 4)``
        (:func:`~repro.sim.execution.parallel_width`) — the result is
        bit-identical to any forced count (the substream split never
        depends on the schedule).
    engine:
        ``"batch"`` uses the vectorized :class:`SaiyanBurstKernel` hot path;
        ``"serial"`` runs the reference ``measure_symbol_errors`` loop.
        Both are bit-identical under a fixed seed.
    precision:
        ``"reference"`` (default) keeps the float64 bit-parity contract;
        ``"fast"`` opts Saiyan arms into the tolerance-gated
        complex64/float32 kernel path (batch engine only).
    store:
        Optional :class:`~repro.sim.store.ResultStore`.  Each grid cell is
        looked up by its content digest before compute (possible because
        cell *i* always draws from the *i*-th spawn of the root seed,
        independent of the grid size or shard count) and persisted after;
        only the missing cells are evaluated.  Requires an integer seed —
        a generator-seeded sweep is not replayable and skips the store.
        Store I/O stays in the parent process; results are bit-identical
        with or without a store.
    """
    if not isinstance(spec, WaveformSweepSpec):
        raise ConfigurationError(
            f"expected a WaveformSweepSpec, got {type(spec).__name__}")
    if engine not in ("batch", "serial"):
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected 'batch' or 'serial'")
    if precision not in PRECISIONS:
        raise ConfigurationError(
            f"unknown precision {precision!r}; expected one of {PRECISIONS}")
    if precision == "fast" and engine == "serial":
        raise ConfigurationError(
            "the serial reference loop is float64-only; "
            "precision='fast' requires the batch engine")
    if isinstance(shards, str):
        if shards != "auto":
            raise ConfigurationError(
                f"shards must be a positive integer or 'auto', got {shards!r}")
    else:
        shards = ensure_integer(shards, "shards", minimum=1)
    if random_state is None:
        random_state = spec.seed
    seed = int(random_state) if isinstance(random_state, (int, np.integer)) else None
    streams = as_rng(random_state).spawn(spec.num_cells)

    cells, keys, provenance = _resolve_cells_from_store(spec, seed, precision, store)
    pending = [index for index, cell in enumerate(cells) if cell is None]

    from repro.sim.execution import (MAX_AUTO_SHARDS, get_cost_model,
                                     get_fabric, parallel_width)

    cost_model = get_cost_model()
    cost_kind = f"waveform:{engine}:{precision}"
    units = _sweep_units(spec, pending) if pending else 0.0
    if shards == "auto":
        shards = min(parallel_width(len(pending)), MAX_AUTO_SHARDS)

    indexed: list[tuple[int, WaveformCell]] = []
    if not pending:
        pass
    elif shards == 1:
        started = time.perf_counter()
        indexed = _evaluate_cells(spec, engine, pending,
                                  [streams[i] for i in pending], precision)
        cost_model.observe(cost_kind, units, time.perf_counter() - started)
    else:
        if engine == "batch":
            # Build every receiver with work left (kernels, templates, FIR
            # taps) before the pool exists: fork-started workers inherit
            # the warm cache.
            grid = spec.cell_grid()
            for receiver_index in sorted({grid[i][0] for i in pending}):
                receiver = _cached_receiver(spec.receivers[receiver_index],
                                            precision)
                if hasattr(receiver, "prepare"):
                    receiver.prepare(spec.num_symbols, spec.symbols_per_burst)
        assignments = [pending[k::shards] for k in range(shards)]
        assignments = [a for a in assignments if a]
        jobs = [(spec, engine, indices, [streams[i] for i in indices], precision)
                for indices in assignments]
        predicted = cost_model.predict_seconds(cost_kind, units)
        started = time.perf_counter()
        # The degradation contract for the hot path: a pool that stays
        # broken through every rebuild runs the shards serially
        # in-process instead of failing the sweep (results identical —
        # jobs are pure functions of their arguments).
        for shard_results in get_fabric().map_jobs(
                _evaluate_cells, jobs, min_workers=len(assignments),
                fallback_serial=True):
            indexed.extend(shard_results)
        if predicted is not None:
            # The wall clock beyond the predicted per-shard compute is the
            # fan-out tax; attribute it evenly to the dispatched jobs so
            # the ledger's dispatch-overhead EWMA tracks the live pool.
            elapsed = time.perf_counter() - started
            overhead = (elapsed - predicted / len(assignments)) / len(assignments)
            cost_model.observe_dispatch(max(0.0, overhead))

    for index, cell in indexed:
        cells[index] = cell
    missing = [i for i, cell in enumerate(cells) if cell is None]
    if missing:
        raise ConfigurationError(f"shards returned no result for cells {missing}")
    if keys is not None:
        for index in pending:
            key, digest = keys[index]
            store.put(key, asdict(cells[index]), digest=digest)
    return WaveformSweepResult(spec=spec, cells=cells, seed=seed,
                               engine=engine, shards=shards, precision=precision,
                               store_provenance=(tuple(provenance)
                                                 if provenance is not None else None))


# ---------------------------------------------------------------------------
# Registered ablation sweeps
# ---------------------------------------------------------------------------

def _saiyan_arm(mode: SaiyanMode, **kwargs) -> ReceiverSpec:
    return ReceiverSpec(kind="saiyan", mode=mode, **kwargs)


#: Ready-made waveform ablation grids, runnable via ``repro waveform``.
WAVEFORM_SWEEPS: dict[str, WaveformSweepSpec] = {
    "modes": WaveformSweepSpec(
        name="modes",
        description=("Mechanism ablation: vanilla comparator pipeline vs "
                     "+cyclic-frequency-shift vs +correlation (Figure 25 at "
                     "waveform level)."),
        receivers=(_saiyan_arm(SaiyanMode.VANILLA),
                   _saiyan_arm(SaiyanMode.FREQUENCY_SHIFT),
                   _saiyan_arm(SaiyanMode.SUPER)),
        snrs_db=(-18.0, -12.0, -6.0, 0.0, 6.0, 12.0),
        seed=1137,
    ),
    "sampling-rate": WaveformSweepSpec(
        name="sampling-rate",
        description=("The 3.2x sampling-rate rule (Table 1): vanilla-pipeline "
                     "accuracy against the comparator sampling-rate factor."),
        receivers=tuple(_saiyan_arm(SaiyanMode.VANILLA, sampling_safety_factor=factor,
                                    label=f"vanilla-{factor:g}x")
                        for factor in (1.2, 2.0, 2.6, 3.2, 4.0)),
        snrs_db=(12.0, 18.0, 24.0, 30.0),
        seed=251,
    ),
    "baselines": WaveformSweepSpec(
        name="baselines",
        description=("Saiyan vs the baseline receivers at waveform level: "
                     "SER for the demodulating receivers, preamble detection "
                     "rate for PLoRa/Aloba/envelope."),
        receivers=(_saiyan_arm(SaiyanMode.SUPER),
                   ReceiverSpec(kind="standard_lora"),
                   ReceiverSpec(kind="plora"),
                   ReceiverSpec(kind="aloba"),
                   ReceiverSpec(kind="envelope")),
        snrs_db=(-24.0, -18.0, -12.0, -6.0, 0.0, 6.0, 12.0),
        seed=73,
    ),
    "coding-rate": WaveformSweepSpec(
        name="coding-rate",
        description=("Super-Saiyan SER against the downlink coding rate "
                     "K=1..4 (Figure 16 mechanism check)."),
        receivers=tuple(_saiyan_arm(SaiyanMode.SUPER, bits_per_chirp=k,
                                    label=f"super-k{k}") for k in (1, 2, 3, 4)),
        snrs_db=(-15.0, -9.0, -3.0, 3.0),
        seed=91,
    ),
    "oversampling": WaveformSweepSpec(
        name="oversampling",
        description=("Simulation-fidelity check: Super-Saiyan SER across "
                     "analog oversampling factors."),
        receivers=tuple(_saiyan_arm(SaiyanMode.SUPER, oversampling=oversampling,
                                    label=f"super-os{oversampling}")
                        for oversampling in (4, 6, 8)),
        snrs_db=(-12.0, -6.0, 0.0),
        seed=17,
    ),
}


def sweep_names() -> list[str]:
    """Registered waveform sweep names, sorted."""
    return sorted(WAVEFORM_SWEEPS)


def get_sweep(name: str) -> WaveformSweepSpec:
    """Look up a registered sweep by name."""
    if name not in WAVEFORM_SWEEPS:
        raise ConfigurationError(
            f"unknown waveform sweep {name!r}; known: {sweep_names()}")
    return WAVEFORM_SWEEPS[name]


def make_waveform_driver(name: str, *, random_state: RandomState = None,
                         shards: int | str = 1, engine: str = "batch",
                         precision: str = "reference",
                         num_symbols: int | None = None,
                         symbols_per_burst: int | None = None,
                         store=None):
    """Build a zero-argument figure-style driver for a registered sweep.

    Like the network engine's scenario drivers, the returned callable makes
    waveform sweeps first-class citizens of the
    :class:`~repro.sim.batch.BatchRunner` machinery: each CLI run records
    one JSON manifest (driver, seed, config snapshot, scalars, wall clock).
    With a ``store``, grid cells are served from / persisted to the result
    store and the driver records the per-cell hit/miss provenance on
    itself (``driver.store_provenance``), which the runner copies into the
    manifest.
    """
    spec = get_sweep(name)
    if num_symbols is not None:
        spec = spec.with_(num_symbols=num_symbols)
    if symbols_per_burst is not None:
        spec = spec.with_(symbols_per_burst=symbols_per_burst)
    seed = spec.seed if random_state is None else random_state
    frozen_spec = spec

    def driver(*, sweep: str = name, random_state=seed, engine: str = engine,
               shards: int | str = shards, precision: str = precision,
               num_symbols: int = spec.num_symbols,
               symbols_per_burst: int = spec.symbols_per_burst) -> SweepResult:
        del sweep  # manifest snapshot only
        run_spec = frozen_spec.with_(num_symbols=num_symbols,
                                     symbols_per_burst=symbols_per_burst)
        run = run_sweep(run_spec, random_state=random_state, shards=shards,
                        engine=engine, precision=precision, store=store)
        driver.store_provenance = run.store_provenance
        return run.to_sweep_result()

    driver.__name__ = f"waveform_{name.replace('-', '_')}"
    driver.__qualname__ = driver.__name__
    return driver
