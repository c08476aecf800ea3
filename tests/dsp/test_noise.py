"""Unit tests for the noise sources."""

import numpy as np
import pytest

from repro.dsp.noise import (
    add_awgn,
    add_awgn_snr,
    awgn_samples,
    flicker_noise,
    noise_power_dbm,
)
from repro.dsp.signals import Signal

FS = 1e6


def test_noise_power_dbm_matches_textbook_value():
    # -174 + 10log10(500e3) + 6 = -111.0 dBm
    assert noise_power_dbm(500e3, 6.0) == pytest.approx(-111.0, abs=0.1)


def test_noise_power_grows_with_bandwidth():
    assert noise_power_dbm(500e3) - noise_power_dbm(125e3) == pytest.approx(6.02, abs=0.05)


def test_awgn_samples_power_complex():
    samples = awgn_samples(200_000, 0.25, complex_valued=True, random_state=0)
    assert np.mean(np.abs(samples) ** 2) == pytest.approx(0.25, rel=0.02)


def test_awgn_samples_power_real():
    samples = awgn_samples(200_000, 0.25, complex_valued=False, random_state=0)
    assert np.mean(samples**2) == pytest.approx(0.25, rel=0.02)


def test_awgn_samples_rejects_bad_count():
    with pytest.raises(ValueError):
        awgn_samples(0, 1.0)


def test_add_awgn_preserves_length_and_rate():
    signal = Signal(np.ones(1000, dtype=complex), FS)
    noisy = add_awgn(signal, 0.1, random_state=1)
    assert len(noisy) == 1000
    assert noisy.sample_rate == FS


def test_add_awgn_snr_sets_requested_snr():
    signal = Signal(np.exp(1j * 2 * np.pi * 0.01 * np.arange(100_000)), FS)
    noisy = add_awgn_snr(signal, 10.0, random_state=2)
    noise = np.asarray(noisy.samples) - np.asarray(signal.samples)
    snr = 10 * np.log10(signal.power() / np.mean(np.abs(noise) ** 2))
    assert snr == pytest.approx(10.0, abs=0.3)


def test_flicker_noise_power_and_shape():
    samples = flicker_noise(65536, 1.0, FS, random_state=4)
    assert np.mean(samples**2) == pytest.approx(1.0, rel=0.05)
    spectrum = np.abs(np.fft.rfft(samples)) ** 2
    freqs = np.fft.rfftfreq(samples.size, d=1 / FS)
    low_band = spectrum[(freqs > 100) & (freqs < 1_000)].mean()
    high_band = spectrum[(freqs > 100_000) & (freqs < 200_000)].mean()
    # 1/f noise: much more energy per Hz at low frequencies.
    assert low_band > 20 * high_band


def test_flicker_noise_zero_power_is_all_zero():
    samples = flicker_noise(1024, 0.0, FS, random_state=5)
    assert np.allclose(samples, 0.0)


def test_noise_is_reproducible_with_seed():
    a = awgn_samples(100, 1.0, random_state=42)
    b = awgn_samples(100, 1.0, random_state=42)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# awgn_sample_pairs: the fused kernel's paired-draw primitive
# ---------------------------------------------------------------------------

def test_awgn_sample_pairs_bit_identical_to_sequential_draws():
    from repro.dsp.noise import awgn_sample_pairs

    for seed, n in ((0, 7), (11, 128), (99, 1000)):
        rng_pair = np.random.default_rng(seed)
        a, b = awgn_sample_pairs(n, 0.4, 0.02, random_state=rng_pair)
        rng_seq = np.random.default_rng(seed)
        ref_a = awgn_samples(n, 0.4, complex_valued=True, random_state=rng_seq)
        ref_b = awgn_samples(n, 0.02, complex_valued=True, random_state=rng_seq)
        assert np.array_equal(a, ref_a)
        assert np.array_equal(b, ref_b)
        # The paired draw must leave the generator exactly where the two
        # sequential draws left it.
        assert rng_pair.integers(1 << 30) == rng_seq.integers(1 << 30)


def test_awgn_sample_pairs_out_and_scratch_buffers_are_bitwise():
    from repro.dsp.noise import awgn_sample_pairs

    n = 64
    out_a = np.empty(n, dtype=np.complex128)
    out_b = np.empty(n, dtype=np.complex128)
    scratch = np.empty(4 * n)
    a, b = awgn_sample_pairs(n, 1.5, 0.3, random_state=np.random.default_rng(5),
                             out_a=out_a, out_b=out_b, scratch=scratch)
    assert a is out_a and b is out_b
    ref_a, ref_b = awgn_sample_pairs(n, 1.5, 0.3,
                                     random_state=np.random.default_rng(5))
    assert np.array_equal(out_a, ref_a)
    assert np.array_equal(out_b, ref_b)
    # A wrong-shaped scratch falls back to a fresh block, same bits.
    bad_scratch, _ = awgn_sample_pairs(
        n, 1.5, 0.3, random_state=np.random.default_rng(5),
        scratch=np.empty(4 * n + 1))
    assert np.array_equal(bad_scratch, ref_a)


def test_awgn_sample_pairs_validates_inputs():
    from repro.dsp.noise import awgn_sample_pairs

    with pytest.raises(ValueError):
        awgn_sample_pairs(0, 1.0, 1.0)
    with pytest.raises(Exception):
        awgn_sample_pairs(4, -1.0, 1.0)
