"""Unit tests for the correlation primitives."""

import numpy as np
import pytest

from repro.dsp.chirp import lora_upchirp
from repro.dsp.correlator import cross_correlate, normalized_correlation
from repro.dsp.noise import add_awgn_snr
from repro.dsp.signals import Signal
from repro.exceptions import SignalError

FS = 2e6
BW = 500e3


def _embedded_chirp(offset=1000, total=6000, seed=0):
    template = lora_upchirp(7, BW, FS)
    rng = np.random.default_rng(seed)
    background = 0.01 * (rng.normal(size=total) + 1j * rng.normal(size=total))
    background[offset:offset + len(template)] += np.asarray(template.samples)
    return Signal(background, FS), template, offset


def test_cross_correlate_output_length():
    signal, template, _ = _embedded_chirp()
    corr = cross_correlate(signal, template)
    assert corr.size == len(signal) - len(template) + 1


def test_cross_correlate_peak_at_embedded_offset():
    signal, template, offset = _embedded_chirp()
    corr = cross_correlate(signal, template)
    assert abs(int(np.argmax(corr)) - offset) <= 2


def test_cross_correlate_rejects_template_longer_than_signal():
    signal = Signal(np.ones(16, dtype=complex), FS)
    with pytest.raises(SignalError):
        cross_correlate(signal, np.ones(32))


def test_cross_correlate_rejects_rate_mismatch():
    signal, template, _ = _embedded_chirp()
    wrong_rate = Signal(np.asarray(template.samples), FS / 2)
    with pytest.raises(SignalError):
        cross_correlate(signal, wrong_rate)


def test_normalized_correlation_bounded():
    signal, template, _ = _embedded_chirp()
    norm = normalized_correlation(signal, template)
    assert np.all(norm >= 0.0)
    assert np.all(norm <= 1.0 + 1e-9)


def test_normalized_correlation_high_at_match_low_elsewhere():
    signal, template, offset = _embedded_chirp()
    norm = normalized_correlation(signal, template)
    assert norm[offset] > 0.9
    assert norm[10] < 0.3


def test_normalized_correlation_robust_to_noise():
    template = lora_upchirp(7, BW, FS)
    noisy = add_awgn_snr(template, 0.0, random_state=3)
    norm = normalized_correlation(noisy, template)
    assert norm.max() > 0.5
