"""The NumPy FIR design, FIR filter and correlator give SciPy's bits.

The default paths design taps, filter and correlate without SciPy.  Each
helper repeats what ``scipy.signal.firwin``, ``lfilter`` and ``correlate``
compute on the shapes the engines use, so payloads stay byte-identical;
SciPy is imported here only as the oracle.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines import plora
from repro.dsp.correlator import cross_correlate, normalized_correlation
from repro.dsp.filters import (
    FIR_PLAN_CACHE,
    apply_fir,
    apply_fir_stack,
    fir_bandpass,
    fir_lowpass,
)
from repro.dsp.signals import Signal
from repro.sim.experiments import FIGURE_DRIVERS
from repro.sim.waveform_engine import WAVEFORM_SWEEPS, run_sweep

signal = pytest.importorskip("scipy.signal")


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                     want.tobytes())


def _firwin(key: tuple) -> np.ndarray:
    if key[0] == "lowpass":
        _, cutoff, fs, num_taps = key
        return signal.firwin(num_taps, cutoff, fs=fs)
    _, low, high, fs, num_taps = key
    return signal.firwin(num_taps, [low, high], pass_zero=False, fs=fs)


def _design(key: tuple) -> np.ndarray:
    if key[0] == "lowpass":
        _, cutoff, fs, num_taps = key
        return fir_lowpass(cutoff, fs, num_taps=num_taps)
    _, low, high, fs, num_taps = key
    return fir_bandpass(low, high, fs, num_taps=num_taps)


def _seeded_designs(count: int = 400) -> list[tuple]:
    rng = np.random.default_rng(20)
    keys = []
    for _ in range(count):
        num_taps = int(rng.integers(3, 400))
        fs = float(rng.choice([1.0, 2.0, 1e6, 2e6, 4e6, rng.uniform(1.0, 1e7)]))
        low, high = np.sort(rng.uniform(1e-4, 0.999, 2)) * fs / 2
        if rng.random() < 0.5:
            keys.append(("lowpass", float(high), fs, num_taps))
        elif low < high:
            keys.append(("bandpass", float(low), float(high), fs, num_taps))
    return keys


def test_fir_designs_equal_firwin_on_a_seeded_grid():
    keys = _seeded_designs()
    mismatched = [key for key in keys if not _same_bits(_design(key), _firwin(key))]
    assert not mismatched


def test_every_registered_fir_design_equals_firwin():
    FIR_PLAN_CACHE.clear()
    for driver in FIGURE_DRIVERS.values():
        driver()
    for spec in WAVEFORM_SWEEPS.values():
        run_sweep(dataclasses.replace(spec, num_symbols=1, symbols_per_burst=1),
                  shards=1)
    keys = FIR_PLAN_CACHE.keys()
    assert {key[0] for key in keys} == {"lowpass", "bandpass"}
    mismatched = [key for key in keys if not _same_bits(_design(key), _firwin(key))]
    assert not mismatched


def _lfilter_reference(taps: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """``apply_fir`` as the SciPy version computed it."""
    delay = (taps.size - 1) // 2
    padded = np.concatenate([samples, np.zeros(delay, dtype=samples.dtype)])
    return signal.lfilter(taps, [1.0], padded)[delay:]


def _fir_cases():
    """``(taps, n)`` with the padded input shorter than, as long as and
    longer than the taps, for odd and even tap counts."""
    for num_taps in (3, 4, 17, 128, 129):
        delay = (num_taps - 1) // 2
        padded_lengths = (1, num_taps - 1, num_taps, num_taps + 1, 3 * num_taps + 5)
        for n in sorted({max(length - delay, 1) for length in padded_lengths}):
            yield num_taps, n


@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize(("num_taps", "n"), list(_fir_cases()))
def test_apply_fir_equals_lfilter(num_taps, n, complex_input):
    rng = np.random.default_rng(num_taps * 1000 + n)
    taps = rng.standard_normal(num_taps)
    samples = rng.standard_normal(n)
    if complex_input:
        samples = samples + 1j * rng.standard_normal(n)
    got = np.asarray(apply_fir(Signal(samples, 1e6), taps).samples)
    assert _same_bits(got, _lfilter_reference(taps, samples))


@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize(("num_taps", "n"), list(_fir_cases()))
def test_apply_fir_stack_equals_lfilter(num_taps, n, complex_input):
    rng = np.random.default_rng(num_taps * 1000 + n + 1)
    taps = rng.standard_normal(num_taps)
    stack = rng.standard_normal((3, n))
    if complex_input:
        stack = stack + 1j * rng.standard_normal((3, n))
    delay = (num_taps - 1) // 2
    padded = np.concatenate([stack, np.zeros((3, delay), dtype=stack.dtype)], axis=1)
    want = signal.lfilter(taps, [1.0], padded, axis=1)[:, delay:]
    assert _same_bits(apply_fir_stack(stack, taps), want)


def test_apply_fir_keeps_lfilter_dtype_promotion():
    taps = fir_lowpass(100e3, 1e6)
    for samples in (np.arange(300, dtype=np.int64),
                    np.linspace(0.0, 1.0, 300, dtype=np.float32),
                    np.exp(1j * np.arange(300)).astype(np.complex64)):
        got = np.asarray(apply_fir(Signal(samples, 1e6), taps).samples)
        assert _same_bits(got, _lfilter_reference(taps, samples))


def _plora_correlation_inputs(monkeypatch) -> list[tuple[Signal, np.ndarray]]:
    """The ``(waveform, template)`` pairs the baselines sweep's PLoRa arm
    hands its correlator."""
    calls = []

    def record(waveform, template):
        calls.append((waveform, np.asarray(template.samples)))
        return normalized_correlation(waveform, template)

    monkeypatch.setattr(plora, "normalized_correlation", record)
    spec = WAVEFORM_SWEEPS["baselines"]
    arms = tuple(arm for arm in spec.receivers if arm.kind == "plora")
    run_sweep(dataclasses.replace(spec, receivers=arms, num_symbols=2,
                                  symbols_per_burst=1), shards=1)
    assert calls
    return calls


def test_correlators_equal_scipy_correlate_on_the_plora_shapes(monkeypatch):
    for waveform, template in _plora_correlation_inputs(monkeypatch):
        samples = np.asarray(waveform.samples)
        assert samples.size > 4 * template.size
        corr = signal.correlate(samples, template, mode="valid")
        assert _same_bits(cross_correlate(waveform, template), np.abs(corr))
        power = signal.correlate(np.abs(samples) ** 2, np.ones(template.size),
                                 mode="valid")
        energy = np.sqrt(np.maximum(power, 1e-30))
        denom = np.maximum(energy * np.sqrt(np.sum(np.abs(template) ** 2)), 1e-30)
        want = np.clip(np.abs(corr) / denom, 0.0, 1.0)
        assert _same_bits(normalized_correlation(waveform, template), want)
