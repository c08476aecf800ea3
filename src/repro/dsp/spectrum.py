"""Spectral analysis: power spectrum, PSD, spectrogram and band power.

Used by the Figure 10 reproduction (baseband spectrum with and without
cyclic-frequency shifting), by the SNR estimators, and by the access point's
spectrum monitor in the channel-hopping case study.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.filters import scipy_signal
from repro.dsp.signals import Signal
from repro.exceptions import ConfigurationError
from repro.utils.units import linear_to_db


def power_spectrum(signal: Signal, *, nfft: int | None = None,
                   db: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(frequencies, power)`` of the windowed FFT of ``signal``.

    Frequencies are signed for complex signals (two-sided spectrum) and
    non-negative for real signals.  With ``db=True`` the power is returned in
    dB relative to a unit-power bin.
    """
    samples = np.asarray(signal.samples)
    n = samples.size if nfft is None else int(nfft)
    if n < 2:
        raise ConfigurationError("power_spectrum requires at least two samples")
    window = np.hanning(min(n, samples.size))
    padded = samples[: window.size] * window
    if np.iscomplexobj(samples):
        spectrum = np.fft.fftshift(np.fft.fft(padded, n=n))
        freqs = np.fft.fftshift(np.fft.fftfreq(n, d=1.0 / signal.sample_rate))
    else:
        spectrum = np.fft.rfft(padded, n=n)
        freqs = np.fft.rfftfreq(n, d=1.0 / signal.sample_rate)
    power = np.abs(spectrum) ** 2 / np.sum(window**2)
    if db:
        power = linear_to_db(np.maximum(power, 1e-30))
    return freqs, power


def power_spectral_density(signal: Signal, *, nperseg: int = 256
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Return the Welch PSD estimate ``(frequencies, psd)`` of ``signal``."""
    samples = np.asarray(signal.samples)
    nperseg = min(int(nperseg), samples.size)
    freqs, psd = scipy_signal().welch(samples, fs=signal.sample_rate,
                                      nperseg=nperseg,
                                      return_onesided=not np.iscomplexobj(samples))
    if np.iscomplexobj(samples):
        order = np.argsort(freqs)
        freqs, psd = freqs[order], psd[order]
    return freqs, psd


def spectrogram(signal: Signal, *, nperseg: int = 128, noverlap: int | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(frequencies, times, magnitude)`` of a short-time spectrogram."""
    samples = np.asarray(signal.samples)
    nperseg = min(int(nperseg), samples.size)
    if noverlap is None:
        noverlap = nperseg // 2
    freqs, times, stft = scipy_signal().spectrogram(
        samples, fs=signal.sample_rate, nperseg=nperseg, noverlap=noverlap,
        return_onesided=not np.iscomplexobj(samples), mode="magnitude",
    )
    if np.iscomplexobj(samples):
        order = np.argsort(freqs)
        freqs, stft = freqs[order], stft[order]
    return freqs, times, stft


def band_power(signal: Signal, low_hz: float, high_hz: float) -> float:
    """Return the linear power of ``signal`` contained in ``[low_hz, high_hz]``.

    For complex signals the band is interpreted on the signed frequency axis;
    for real signals on the one-sided axis.
    """
    if high_hz <= low_hz:
        raise ConfigurationError(f"high_hz ({high_hz}) must exceed low_hz ({low_hz})")
    freqs, psd = power_spectral_density(signal)
    mask = (freqs >= low_hz) & (freqs <= high_hz)
    if not np.any(mask):
        return 0.0
    df = np.median(np.diff(freqs)) if freqs.size > 1 else 1.0
    return float(np.sum(psd[mask]) * df)


def occupied_bandwidth(signal: Signal, fraction: float = 0.99) -> float:
    """Return the bandwidth containing ``fraction`` of the total signal power."""
    if not 0 < fraction <= 1:
        raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
    freqs, psd = power_spectral_density(signal)
    total = np.sum(psd)
    if total <= 0:
        return 0.0
    order = np.argsort(psd)[::-1]
    cumulative = np.cumsum(psd[order])
    needed = np.searchsorted(cumulative, fraction * total) + 1
    selected = np.sort(freqs[order[:needed]])
    return float(selected[-1] - selected[0]) if selected.size > 1 else 0.0
