"""Filtering primitives: moving average, FIR design, frequency-domain gain.

The hardware layer models analog filters (the SAW filter, the IF band-pass
amplifier, the output low-pass filter) on top of these primitives.  FIR
design uses Hamming-windowed-sinc filters and FIR application uses
``np.convolve``, both written in NumPy to give the same bits as SciPy's
``firwin`` and ``lfilter``; the frequency-domain gain helper applies an
arbitrary magnitude response, which is how the measured SAW response from
Figure 5 is imposed onto a waveform.

SciPy costs about a second and 45 MB to import, so no default path loads
it.  Only the two ``precision="fast"`` helpers
(:func:`apply_fir_stack_fast` and the complex64 branch of
:func:`apply_frequency_gain_stack`) import it, inside the function.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.signals import Signal
from repro.exceptions import ConfigurationError
from repro.utils.plans import PlanCache, freeze_array
from repro.utils.validation import ensure_integer, ensure_positive

#: Memoized windowed-sinc designs.  Tap vectors are pure functions of the
#: full design tuple (kind, band edges, sample rate, tap count) — the cache
#: key — and are returned read-only, so a hit is indistinguishable from a
#: rebuild.  Bounded LRU: long multi-config sessions cannot grow it without
#: limit (see repro.sim.execution for the fabric-wide cache registry).
FIR_PLAN_CACHE = PlanCache("fir-plans", maxsize=128)


def moving_average(signal: Signal, window: int) -> Signal:
    """Return the centred moving average of ``signal`` over ``window`` samples.

    ``np.convolve(..., mode="same")`` centres the window: output ``i``
    averages inputs ``i - window // 2`` to ``i + (window - 1) // 2``, so an
    impulse at ``k`` spreads over ``k - (window - 1) // 2`` to
    ``k + window // 2``.  This mirrors the moving-average filter Aloba
    applies to RSSI samples for packet detection.
    """
    window = ensure_integer(window, "window", minimum=1)
    kernel = np.ones(window) / window
    samples = np.convolve(np.asarray(signal.samples), kernel, mode="same")
    return signal.with_samples(samples, label=f"{signal.label}|mavg{window}")


def fir_lowpass(cutoff_hz: float, sample_rate: float, *, num_taps: int = 129) -> np.ndarray:
    """Design a linear-phase FIR low-pass filter (Hamming windowed sinc)."""
    ensure_positive(cutoff_hz, "cutoff_hz")
    ensure_positive(sample_rate, "sample_rate")
    num_taps = ensure_integer(num_taps, "num_taps", minimum=3)
    nyquist = sample_rate / 2.0
    if cutoff_hz >= nyquist:
        raise ConfigurationError(
            f"cutoff_hz ({cutoff_hz}) must be below the Nyquist frequency ({nyquist})"
        )
    key = ("lowpass", float(cutoff_hz), float(sample_rate), num_taps)
    return FIR_PLAN_CACHE.get(
        key, lambda: freeze_array(_firwin(num_taps, 0.0, cutoff_hz, sample_rate)))


def fir_bandpass(low_hz: float, high_hz: float, sample_rate: float, *,
                 num_taps: int = 129) -> np.ndarray:
    """Design a linear-phase FIR band-pass filter."""
    ensure_positive(low_hz, "low_hz")
    ensure_positive(high_hz, "high_hz")
    num_taps = ensure_integer(num_taps, "num_taps", minimum=3)
    nyquist = sample_rate / 2.0
    if not low_hz < high_hz:
        raise ConfigurationError(f"low_hz ({low_hz}) must be below high_hz ({high_hz})")
    if high_hz >= nyquist:
        raise ConfigurationError(
            f"high_hz ({high_hz}) must be below the Nyquist frequency ({nyquist})"
        )
    key = ("bandpass", float(low_hz), float(high_hz), float(sample_rate), num_taps)
    return FIR_PLAN_CACHE.get(
        key, lambda: freeze_array(_firwin(num_taps, low_hz, high_hz, sample_rate)))


def _firwin(num_taps: int, low_hz: float, high_hz: float,
            sample_rate: float) -> np.ndarray:
    """Hamming-windowed-sinc taps with one pass band ``[low_hz, high_hz]``.

    ``scipy.signal.firwin(num_taps, cutoff, fs=sample_rate)`` (SciPy 1.17),
    repeated operation for operation so the taps are the same bits; a
    low-pass band starts at ``low_hz = 0``.
    """
    left, right = np.asarray([low_hz, high_hz], dtype=float) / (0.5 * float(sample_rate))
    m = np.arange(num_taps, dtype=float) - 0.5 * (num_taps - 1)
    h = right * np.sinc(right * m)
    h -= left * np.sinc(left * m)
    # scipy.signal.windows.general_cosine(num_taps, [0.54, 1 - 0.54]).
    fac = np.linspace(-np.pi, np.pi, num_taps)
    window = 0.54 * np.cos(0 * fac)
    window += (1.0 - 0.54) * np.cos(1 * fac)
    h *= window
    # Unit gain at the centre of the pass band (at DC for a low-pass).
    scale_frequency = 0.0 if left == 0 else 0.5 * (left + right)
    h /= np.sum(h * np.cos(np.pi * m * scale_frequency))
    return h


def _lfilter(taps: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """``scipy.signal.lfilter(taps, [1.0], samples)`` for a 1-D ``samples``.

    For an FIR filter ``lfilter`` returns the first ``samples.size`` points
    of ``np.convolve(taps, samples)`` with both cast to their result dtype.
    The argument order is part of the contract: ``np.convolve`` puts the
    longer argument first and keeps the given order on a tie, and the order
    fixes how each sum accumulates.
    """
    dtype = np.result_type(taps, samples)
    return np.convolve(taps.astype(dtype), samples.astype(dtype, copy=False))[: samples.size]


def apply_fir(signal: Signal, taps: np.ndarray) -> Signal:
    """Apply FIR ``taps`` to ``signal`` with zero group-delay compensation.

    ``filtfilt``-style forward/backward filtering would double the roll-off;
    instead the linear-phase delay of ``(len(taps) - 1) / 2`` samples is
    removed so that envelope timing (on which Saiyan's peak-position decoding
    depends) is preserved.
    """
    taps = np.asarray(taps, dtype=float)
    if taps.ndim != 1 or taps.size < 1:
        raise ConfigurationError("taps must be a non-empty 1-D array")
    samples = np.asarray(signal.samples)
    delay = (taps.size - 1) // 2
    padded = np.concatenate([samples, np.zeros(delay, dtype=samples.dtype)])
    return signal.with_samples(_lfilter(taps, padded)[delay:])


def apply_fir_stack(stack: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Batched :func:`apply_fir`: filter every row of a 2-D sample stack.

    Row ``i`` of the result is bit-identical to
    ``apply_fir(Signal(stack[i], fs), taps)``: each row goes through the
    same ``np.convolve`` call, and the zero-padding / group-delay
    compensation here mirrors the 1-D helper exactly.  The batch engines
    rely on that equivalence for engine bit-parity.
    """
    taps = np.asarray(taps, dtype=float)
    if taps.ndim != 1 or taps.size < 1:
        raise ConfigurationError("taps must be a non-empty 1-D array")
    stack = np.asarray(stack)
    if stack.ndim != 2:
        raise ConfigurationError(f"stack must be 2-D, got shape {stack.shape}")
    delay = (taps.size - 1) // 2
    padded = np.concatenate(
        [stack, np.zeros((stack.shape[0], delay), dtype=stack.dtype)], axis=1)
    out = np.empty(padded.shape, dtype=np.result_type(taps, padded))
    for row, samples in zip(out, padded):
        row[:] = _lfilter(taps, samples)
    return out[:, delay:]


def apply_fir_stack_gapped(stack: np.ndarray, taps: np.ndarray,
                           row_length: int) -> np.ndarray:
    """Bitwise :func:`apply_fir_stack` over a zero-gapped flat layout.

    ``stack`` must have shape ``(rows, row_length + len(taps) - 1)`` where
    the trailing ``len(taps) - 1`` columns of every row are zero (the
    *gap*).  The gap lets the whole stack be convolved as **one** flat 1-D
    ``np.convolve`` call — the zeros flush the overlap between consecutive
    rows, so slicing the flat result back into rows recovers each row's own
    convolution.  One long convolution beats the per-row loop by ~40 % on
    the mega-batch shapes, which is why the fused kernel stages
    its detected envelopes in this layout.

    Bit-identity with ``apply_fir_stack(stack[:, :row_length], taps)`` needs
    one repair: for rows after the first, the flat pass computes full
    ``len(taps)``-term windows across the gap (all-zero terms, but present
    in the accumulation), while the per-row convolution computes *short*
    boundary sums for the first ``len(taps) - 1 - delay`` output columns.
    Identical values, different floating-point accumulation grouping — so
    those head columns are re-patched with a per-row boundary convolution.
    The patch segment must be *strictly longer* than ``taps`` (hence the
    ``row_length < len(taps) + 1`` fallback below): ``np.convolve`` swaps
    its arguments when the second is not longer than the first, which
    changes the accumulation order and breaks the bit-identity.
    """
    taps = np.asarray(taps, dtype=float)
    if taps.ndim != 1 or taps.size < 1:
        raise ConfigurationError("taps must be a non-empty 1-D array")
    stack = np.asarray(stack)
    if stack.ndim != 2:
        raise ConfigurationError(f"stack must be 2-D, got shape {stack.shape}")
    row_length = ensure_integer(row_length, "row_length", minimum=1)
    rows, width = stack.shape
    taps_len = taps.size
    if width != row_length + taps_len - 1 or row_length < taps_len + 1:
        # Layout mismatch or rows too short for the head patch: fall back to
        # the per-row reference (same bits, slower).
        return apply_fir_stack(stack[:, :row_length], taps)
    delay = (taps_len - 1) // 2
    flat = np.convolve(stack.reshape(-1), taps)
    out = flat[: rows * width].reshape(rows, width)[:, delay: delay + row_length]
    head = taps_len - 1 - delay
    for r in range(1, rows):
        out[r, :head] = np.convolve(taps, stack[r, : taps_len + 1])[delay: delay + head]
    return out


def apply_fir_stack_fast(stack: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Single-precision-friendly :func:`apply_fir_stack` via FFT convolution.

    Computes the same linear convolution (with the same group-delay
    compensation) through ``scipy.signal.fftconvolve``, which keeps
    float32/complex64 inputs in single precision.  SciPy rather than an
    ``np.fft`` rfft product, because it is measurably faster at the
    kernel's shape: on a 2-core Xeon (numpy 2.4.6, SciPy 1.17) a 144 x
    8192 float32 stack takes 10-12 ms against 17-18 ms for the ``np.fft``
    product padded to 8640, and an ``np.fft`` version of the fast path
    slowed the ``modes`` fast sweep (768 symbols, 1 shard) from 1.16 s to
    1.53 s.  The result is *numerically close* to
    :func:`apply_fir_stack` but **not bitwise-identical** (FFT convolution
    rounds differently from the direct sums), so this helper belongs only on
    tolerance-gated fast paths, never on engine bit-parity paths.
    """
    taps = np.asarray(taps)
    if taps.ndim != 1 or taps.size < 1:
        raise ConfigurationError("taps must be a non-empty 1-D array")
    stack = np.asarray(stack)
    if stack.ndim != 2:
        raise ConfigurationError(f"stack must be 2-D, got shape {stack.shape}")
    from scipy.signal import fftconvolve

    delay = (taps.size - 1) // 2
    full = fftconvolve(stack, taps[None, :], mode="full", axes=1)
    return full[:, delay: delay + stack.shape[1]]


def frequency_gain_profile(n: int, sample_rate: float, gain_fn, *,
                           complex_input: bool) -> np.ndarray:
    """Precompute the per-bin gains :func:`frequency_domain_gain` would apply.

    For a fixed signal length the gain evaluation (e.g. the interpolated SAW
    response) is deterministic, so hot paths compute it once and reuse it
    with :func:`apply_frequency_gain_stack`.
    """
    n = ensure_integer(n, "n", minimum=1)
    ensure_positive(sample_rate, "sample_rate")
    if complex_input:
        freqs = np.fft.fftfreq(n, d=1.0 / sample_rate)
    else:
        freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    gains = np.asarray(gain_fn(freqs), dtype=float)
    if gains.shape != freqs.shape:
        raise ConfigurationError("gain_fn must return one gain per frequency bin")
    return gains


def apply_frequency_gain_stack(stack: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Batched :func:`frequency_domain_gain` with precomputed per-bin gains.

    Row ``i`` of the result is bit-identical to shaping ``stack[i]`` alone:
    pocketfft computes batched transforms independently per row, and the
    gain multiply is elementwise.
    """
    stack = np.asarray(stack)
    if stack.ndim != 2:
        raise ConfigurationError(f"stack must be 2-D, got shape {stack.shape}")
    n = stack.shape[1]
    # Preserve an explicit float32 gain vector (the single-precision fast
    # path); anything else is normalised to float64 as before.
    gains = np.asarray(gains)
    if gains.dtype != np.float32:
        gains = gains.astype(float, copy=False)
    if np.iscomplexobj(stack):
        if gains.shape != (n,):
            raise ConfigurationError("gains length must match the stack width")
        if stack.dtype == np.complex64 and gains.dtype == np.float32:
            # Single-precision fast path.  ``np.fft`` keeps complex64 too
            # (numpy 2.x), but ``scipy.fft`` is faster: an fft + ifft of a
            # 144 x 8192 stack takes 12-15 ms against 33-39 ms on a 2-core
            # Xeon (numpy 2.4.6, SciPy 1.17).  Tolerance-gated only —
            # float32 transforms round differently from the float64
            # reference.
            from scipy import fft as sfft

            return sfft.ifft(sfft.fft(stack, axis=1) * gains[None, :], axis=1)
        return np.fft.ifft(np.fft.fft(stack, axis=1) * gains[None, :], axis=1)
    if gains.shape != (n // 2 + 1,):
        raise ConfigurationError("gains length must match the rfft bin count")
    return np.fft.irfft(np.fft.rfft(stack, axis=1) * gains[None, :], n=n, axis=1)


def lowpass_filter(signal: Signal, cutoff_hz: float, *, num_taps: int = 129) -> Signal:
    """Low-pass filter ``signal`` at ``cutoff_hz``."""
    taps = fir_lowpass(cutoff_hz, signal.sample_rate, num_taps=num_taps)
    return apply_fir(signal, taps).relabel(f"{signal.label}|lpf{cutoff_hz:g}")


def bandpass_filter(signal: Signal, low_hz: float, high_hz: float, *,
                    num_taps: int = 129) -> Signal:
    """Band-pass filter ``signal`` between ``low_hz`` and ``high_hz``."""
    taps = fir_bandpass(low_hz, high_hz, signal.sample_rate, num_taps=num_taps)
    return apply_fir(signal, taps).relabel(f"{signal.label}|bpf{low_hz:g}-{high_hz:g}")


def frequency_domain_gain(signal: Signal, gain_fn) -> Signal:
    """Apply a frequency-dependent amplitude gain to ``signal``.

    ``gain_fn`` receives the FFT bin frequencies (Hz, signed for complex
    signals) and must return the *linear amplitude* gain at each frequency.
    This is how the measured SAW filter response (Figure 5) is imposed on a
    chirp waveform: the chirp's energy at each instantaneous frequency is
    scaled by the filter's gain at that frequency, which converts the
    frequency modulation into amplitude modulation.
    """
    samples = np.asarray(signal.samples)
    n = samples.size
    if np.iscomplexobj(samples):
        spectrum = np.fft.fft(samples)
        freqs = np.fft.fftfreq(n, d=1.0 / signal.sample_rate)
        gains = np.asarray(gain_fn(freqs), dtype=float)
        if gains.shape != freqs.shape:
            raise ConfigurationError("gain_fn must return one gain per frequency bin")
        shaped = np.fft.ifft(spectrum * gains)
    else:
        spectrum = np.fft.rfft(samples)
        freqs = np.fft.rfftfreq(n, d=1.0 / signal.sample_rate)
        gains = np.asarray(gain_fn(freqs), dtype=float)
        if gains.shape != freqs.shape:
            raise ConfigurationError("gain_fn must return one gain per frequency bin")
        shaped = np.fft.irfft(spectrum * gains, n=n)
    return signal.with_samples(shaped, label=f"{signal.label}|shaped")
