"""Correlation primitives.

Correlation appears in three places in the reproduced system: the Super
Saiyan correlator that extends the demodulation range (§3.2), the PLoRa
baseline's cross-correlation packet detector, and the standard LoRa
receiver's preamble search.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.signals import Signal
from repro.exceptions import SignalError


def cross_correlate(signal: Signal, template: Signal | np.ndarray) -> np.ndarray:
    """Return the magnitude of the sliding cross-correlation with ``template``.

    The output has ``len(signal) - len(template) + 1`` entries (valid mode);
    entry ``i`` is the correlation of the template with the signal window
    starting at sample ``i``.
    """
    template_samples = _template_samples(signal, template)
    samples = np.asarray(signal.samples)
    if template_samples.size > samples.size:
        raise SignalError(
            f"template ({template_samples.size} samples) is longer than the "
            f"signal ({samples.size} samples)"
        )
    corr = np.correlate(samples, template_samples, mode="valid")
    return np.abs(corr)


def normalized_correlation(signal: Signal, template: Signal | np.ndarray) -> np.ndarray:
    """Return the cross-correlation normalised to ``[0, 1]``.

    Each window is normalised by the product of the window energy and the
    template energy, making the statistic an SNR-independent similarity
    measure — this is what a packet detector thresholds against.
    """
    template_samples = _template_samples(signal, template)
    samples = np.asarray(signal.samples)
    corr = cross_correlate(signal, template)
    template_energy = np.sqrt(np.sum(np.abs(template_samples) ** 2))
    window_power = np.correlate(np.abs(samples) ** 2,
                                np.ones(template_samples.size), mode="valid")
    window_energy = np.sqrt(np.maximum(window_power, 1e-30))
    denom = np.maximum(window_energy * template_energy, 1e-30)
    return np.clip(corr / denom, 0.0, 1.0)


def _template_samples(signal: Signal, template: Signal | np.ndarray) -> np.ndarray:
    if isinstance(template, Signal):
        if not np.isclose(template.sample_rate, signal.sample_rate):
            raise SignalError(
                "template sample rate differs from signal sample rate "
                f"({template.sample_rate} Hz vs {signal.sample_rate} Hz)"
            )
        return np.asarray(template.samples)
    template = np.asarray(template)
    if template.ndim != 1 or template.size == 0:
        raise SignalError("template must be a non-empty 1-D array")
    return template
