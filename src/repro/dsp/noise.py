"""Noise sources: thermal AWGN and flicker noise.

The noise floor seen by the Saiyan front end is modelled as additive white
Gaussian noise whose power is derived from the thermal noise density
(−174 dBm/Hz), the receiver bandwidth and the receiver noise figure.  The
cyclic-frequency-shifting circuit additionally has to contend with DC offset
and 1/f (flicker) noise at baseband; :func:`flicker_noise` synthesises the
latter (the offset is a plain constant, added by
:class:`~repro.core.cyclic_shift.BasebandImpairments`) so that the benefit
of moving the signal to an intermediate frequency is reproduced.
"""

from __future__ import annotations

import numpy as np

from repro.constants import THERMAL_NOISE_DBM_PER_HZ
from repro.dsp.signals import Signal
from repro.utils.rng import RandomState, as_rng
from repro.utils.units import db_to_linear
from repro.utils.validation import ensure_non_negative, ensure_positive


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Return the thermal noise power (dBm) in ``bandwidth_hz``.

    ``N = -174 dBm/Hz + 10*log10(BW) + NF``.
    """
    ensure_positive(bandwidth_hz, "bandwidth_hz")
    ensure_non_negative(noise_figure_db, "noise_figure_db")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * np.log10(bandwidth_hz) + noise_figure_db


def awgn_samples(n: int, noise_power: float, *, complex_valued: bool = True,
                 random_state: RandomState = None) -> np.ndarray:
    """Generate ``n`` AWGN samples with average power ``noise_power`` (linear).

    For complex noise the power is split evenly between the I and Q
    components.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ensure_non_negative(noise_power, "noise_power")
    rng = as_rng(random_state)
    if complex_valued:
        sigma = np.sqrt(noise_power / 2.0)
        # One 2n block draw equals two sequential n draws bit for bit (the
        # PR 1 substream contract), and assembling I/Q in place produces the
        # same floats as ``sigma * (i + 1j * q)`` without three complex
        # temporaries — this helper sits on the hot path of every waveform
        # engine, so the allocations matter.
        block = rng.standard_normal(2 * n)
        out = np.empty(n, dtype=np.complex128)
        out.real = block[:n]
        out.imag = block[n:]
        out *= sigma
        return out
    sigma = np.sqrt(noise_power)
    return sigma * rng.standard_normal(n)


def awgn_sample_pairs(n: int, noise_power_a: float, noise_power_b: float, *,
                      random_state: RandomState = None,
                      out_a: np.ndarray | None = None,
                      out_b: np.ndarray | None = None,
                      scratch: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Draw two consecutive complex AWGN rows from one generator block.

    Bit-identical to two sequential :func:`awgn_samples` calls: a single
    ``4n`` ``standard_normal`` block equals two ``2n`` blocks draw for
    draw (the PR 1 substream contract), and each row is assembled and
    scaled exactly as :func:`awgn_samples` assembles it.  The fused
    waveform kernel uses this to halve the per-burst generator dispatch
    overhead (channel noise + LNA noise in one draw) without moving a
    single sample.

    ``out_a``/``out_b`` may supply preallocated complex128 destination
    rows of length ``n`` (workspace reuse); ``scratch`` may supply a
    float64 buffer of length ``4n`` for the normal block
    (``standard_normal(out=...)`` equals a fresh allocation bit for bit).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ensure_non_negative(noise_power_a, "noise_power_a")
    ensure_non_negative(noise_power_b, "noise_power_b")
    rng = as_rng(random_state)
    if scratch is not None and scratch.shape == (4 * n,):
        rng.standard_normal(out=scratch)
        block = scratch
    else:
        block = rng.standard_normal(4 * n)
    if out_a is None:
        out_a = np.empty(n, dtype=np.complex128)
    if out_b is None:
        out_b = np.empty(n, dtype=np.complex128)
    out_a.real = block[:n]
    out_a.imag = block[n: 2 * n]
    out_a *= np.sqrt(noise_power_a / 2.0)
    out_b.real = block[2 * n: 3 * n]
    out_b.imag = block[3 * n:]
    out_b *= np.sqrt(noise_power_b / 2.0)
    return out_a, out_b


def add_awgn(signal: Signal, noise_power: float, *,
             random_state: RandomState = None) -> Signal:
    """Add AWGN of linear power ``noise_power`` to ``signal``."""
    noise = awgn_samples(len(signal), noise_power,
                         complex_valued=signal.is_complex, random_state=random_state)
    return signal.with_samples(np.asarray(signal.samples) + noise,
                               label=f"{signal.label}+awgn")


def add_awgn_snr(signal: Signal, snr_db: float, *,
                 random_state: RandomState = None) -> Signal:
    """Add AWGN such that the resulting SNR equals ``snr_db``.

    The signal power is measured from the samples, so the function works for
    any waveform regardless of absolute scaling.
    """
    signal_power = signal.power()
    noise_power = signal_power / db_to_linear(snr_db)
    return add_awgn(signal, float(noise_power), random_state=random_state)


def flicker_noise(n: int, power: float, sample_rate: float, *,
                  random_state: RandomState = None) -> np.ndarray:
    """Generate ``n`` samples of 1/f (flicker) noise with average power ``power``.

    Flicker noise is synthesised by shaping white Gaussian noise with a
    ``1/sqrt(f)`` magnitude response in the frequency domain; the DC bin is
    set to zero so any DC offset is added separately.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ensure_non_negative(power, "power")
    ensure_positive(sample_rate, "sample_rate")
    rng = as_rng(random_state)
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    shaping = np.zeros_like(freqs)
    nonzero = freqs > 0
    shaping[nonzero] = 1.0 / np.sqrt(freqs[nonzero])
    shaped = np.fft.irfft(spectrum * shaping, n=n)
    current = np.mean(shaped**2)
    if current > 0:
        shaped *= np.sqrt(power / current)
    return shaped
