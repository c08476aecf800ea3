"""Unit tests for the filtering primitives."""

import numpy as np
import pytest

from repro.dsp.filters import (
    apply_fir,
    bandpass_filter,
    fir_bandpass,
    fir_lowpass,
    frequency_domain_gain,
    lowpass_filter,
    moving_average,
)
from repro.dsp.signals import Signal
from repro.exceptions import ConfigurationError

FS = 100e3


def _tone(freq, n=4096, amplitude=1.0):
    t = np.arange(n) / FS
    return Signal(amplitude * np.cos(2 * np.pi * freq * t), FS)


def test_moving_average_smooths_constant_signal():
    signal = Signal(np.ones(100), FS)
    smoothed = moving_average(signal, 10)
    assert np.mean(np.asarray(smoothed.samples)[20:80]) == pytest.approx(1.0)


def test_moving_average_window_one_is_identity():
    signal = Signal(np.random.default_rng(0).normal(size=50), FS)
    np.testing.assert_allclose(moving_average(signal, 1).samples, signal.samples)


def test_moving_average_is_centred_not_causal():
    # mode="same" centres the window: an impulse at 6 spreads over 5..8 for
    # window 4, i.e. one sample before the impulse, not 6..9.
    impulse = np.zeros(16)
    impulse[6] = 1.0
    out = np.asarray(moving_average(Signal(impulse, FS), 4).samples)
    np.testing.assert_array_equal(np.flatnonzero(out), [5, 6, 7, 8])
    np.testing.assert_allclose(out[5:9], 0.25)


def test_moving_average_rejects_zero_window():
    with pytest.raises(Exception):
        moving_average(Signal(np.ones(10), FS), 0)


def test_fir_lowpass_passes_low_and_rejects_high():
    taps = fir_lowpass(5e3, FS, num_taps=201)
    low = apply_fir(_tone(1e3), taps)
    high = apply_fir(_tone(30e3), taps)
    assert low.power() > 0.4
    assert high.power() < 0.01


def test_fir_lowpass_rejects_cutoff_beyond_nyquist():
    with pytest.raises(ConfigurationError):
        fir_lowpass(60e3, FS)


def test_fir_bandpass_selects_band():
    taps = fir_bandpass(10e3, 20e3, FS, num_taps=301)
    inside = apply_fir(_tone(15e3), taps)
    below = apply_fir(_tone(2e3), taps)
    above = apply_fir(_tone(40e3), taps)
    assert inside.power() > 0.3
    assert below.power() < 0.01
    assert above.power() < 0.01


def test_fir_bandpass_validates_edges():
    with pytest.raises(ConfigurationError):
        fir_bandpass(20e3, 10e3, FS)
    with pytest.raises(ConfigurationError):
        fir_bandpass(10e3, 60e3, FS)


def test_apply_fir_compensates_group_delay():
    # A delta through a linear-phase filter should stay centred.
    taps = fir_lowpass(10e3, FS, num_taps=101)
    impulse = np.zeros(512)
    impulse[256] = 1.0
    filtered = apply_fir(Signal(impulse, FS), taps)
    assert abs(int(np.argmax(np.abs(filtered.samples))) - 256) <= 1


def test_apply_fir_rejects_bad_taps():
    with pytest.raises(ConfigurationError):
        apply_fir(_tone(1e3), np.zeros((2, 2)))


def test_lowpass_filter_convenience_matches_fir():
    signal = _tone(1e3)
    assert lowpass_filter(signal, 5e3).power() == pytest.approx(signal.power(), rel=0.1)


def test_bandpass_filter_convenience():
    signal = _tone(15e3)
    filtered = bandpass_filter(signal, 10e3, 20e3, num_taps=301)
    assert filtered.power() == pytest.approx(signal.power(), rel=0.2)


def test_frequency_domain_gain_scales_selected_band():
    signal = _tone(10e3).add(_tone(30e3))

    def gain(freqs):
        gains = np.ones_like(freqs, dtype=float)
        gains[np.abs(np.abs(freqs) - 30e3) < 2e3] = 0.0
        return gains

    shaped = frequency_domain_gain(signal, gain)
    # Only the 10 kHz tone should survive: power halves.
    assert shaped.power() == pytest.approx(signal.power() / 2, rel=0.1)


def test_frequency_domain_gain_complex_signal():
    t = np.arange(2048) / FS
    signal = Signal(np.exp(1j * 2 * np.pi * 10e3 * t), FS)
    shaped = frequency_domain_gain(signal, lambda freqs: np.where(freqs > 0, 2.0, 1.0))
    assert shaped.power() == pytest.approx(4.0 * signal.power(), rel=0.05)


def test_frequency_domain_gain_validates_shape():
    with pytest.raises(ConfigurationError):
        frequency_domain_gain(_tone(1e3), lambda freqs: np.ones(3))


# ---------------------------------------------------------------------------
# apply_fir_stack_gapped: the fused kernel's flat-convolve FIR
# ---------------------------------------------------------------------------

def _gapped_stack(rows, row_length, taps_len, seed=0, dtype=float):
    rng = np.random.default_rng(seed)
    stack = np.zeros((rows, row_length + taps_len - 1), dtype=dtype)
    stack[:, :row_length] = rng.normal(size=(rows, row_length))
    return stack


def test_gapped_fir_bit_identical_to_row_reference():
    from repro.dsp.filters import apply_fir_stack, apply_fir_stack_gapped

    for taps_len, rows, row_length, seed in ((7, 1, 64, 0), (8, 3, 64, 1),
                                             (33, 5, 256, 2), (5, 2, 7, 3)):
        taps = np.random.default_rng(100 + seed).normal(size=taps_len)
        stack = _gapped_stack(rows, row_length, taps_len, seed=seed)
        gapped = apply_fir_stack_gapped(stack, taps, row_length)
        reference = apply_fir_stack(stack[:, :row_length], taps)
        assert np.array_equal(gapped, reference), (taps_len, rows, row_length)


def test_gapped_fir_fallback_paths_are_bitwise():
    from repro.dsp.filters import apply_fir_stack, apply_fir_stack_gapped

    taps = np.random.default_rng(7).normal(size=9)
    # Short rows (row_length < taps + 1): head patch impossible -> fallback.
    short = _gapped_stack(3, 8, taps.size, seed=4)
    assert np.array_equal(apply_fir_stack_gapped(short, taps, 8),
                          apply_fir_stack(short[:, :8], taps))
    # Width mismatch (not a gapped layout) -> fallback on the leading slice.
    plain = np.random.default_rng(5).normal(size=(3, 40))
    assert np.array_equal(apply_fir_stack_gapped(plain, taps, 40),
                          apply_fir_stack(plain[:, :40], taps))


def test_gapped_fir_validates_inputs():
    from repro.dsp.filters import apply_fir_stack_gapped

    with pytest.raises(ConfigurationError):
        apply_fir_stack_gapped(np.ones((2, 10)), np.ones((2, 2)), 8)
    with pytest.raises(ConfigurationError):
        apply_fir_stack_gapped(np.ones(10), np.ones(3), 8)
    with pytest.raises(Exception):
        apply_fir_stack_gapped(np.ones((2, 10)), np.ones(3), 0)
