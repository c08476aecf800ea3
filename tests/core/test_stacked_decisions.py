"""Parity of the array decision stage with its scalar oracles.

The decision stage decides a whole ``(rows, samples)`` stack of envelopes
per call: hysteresis comparator (Equation 3), per-row threshold calibration,
peak-position decoding (§2.2) and template correlation (§3.2).  Decisions
are integers, so every test here asks for exact equality against the
scalar code kept as the oracle: a per-sample comparator loop,
``np.percentile`` per row, ``PeakPositionDecoder.locate_peak`` per window
and ``CorrelationDemodulator._score_centered`` per window.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.baselines.aloba import longest_run
from repro.core.config import SaiyanConfig, SaiyanMode
from repro.core.correlation import CorrelationDemodulator
from repro.core.demodulator import SymbolDecision, VanillaSaiyanDemodulator
from repro.core.peak_detection import (
    PeakPositionDecoder,
    peak_position_to_symbol,
    symbol_windows,
)
from repro.core.quantizer import ThresholdCalibrator, ThresholdPair
from repro.dsp.signals import Signal
from repro.hardware.comparator import DoubleThresholdComparator, hysteresis_states
from repro.lora.parameters import DownlinkParameters
from repro.sim.waveform_engine import get_sweep, run_sweep, sweep_names

DECODERS = {bits: PeakPositionDecoder(SaiyanConfig(
    downlink=DownlinkParameters(bits_per_chirp=bits))) for bits in (1, 2, 5)}


# ---------------------------------------------------------------------------
# Comparator
# ---------------------------------------------------------------------------

def _hysteresis_loop(samples, high, low, initial_state):
    """Equation 3, one sample at a time."""
    state = initial_state
    out = []
    for amplitude in samples:
        if state == 0:
            state = 1 if amplitude >= high else 0
        else:
            state = 0 if amplitude < low else 1
        out.append(state)
    return out


_LOW, _HIGH = 0.3, 0.7
_COMPARATOR_SAMPLES = st.lists(
    st.one_of(st.sampled_from([_LOW, _HIGH, np.nan, 0.0, 0.5, 1.0]),
              st.floats(min_value=0.0, max_value=1.0)),
    min_size=1, max_size=60)


@settings(max_examples=200, deadline=None)
@given(_COMPARATOR_SAMPLES, st.sampled_from([0, 1]))
def test_comparator_matches_per_sample_loop(values, initial_state):
    output = DoubleThresholdComparator(_HIGH, _LOW).quantize(
        np.array(values), initial_state=initial_state)
    assert output.binary.tolist() == _hysteresis_loop(values, _HIGH, _LOW, initial_state)


@settings(max_examples=100, deadline=None)
@given(st.lists(_COMPARATOR_SAMPLES, min_size=1, max_size=5), st.sampled_from([0, 1]),
       st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=5, max_size=5))
def test_comparator_rows_match_per_sample_loop(rows, initial_state, highs):
    width = min(len(row) for row in rows)
    stack = np.array([row[:width] for row in rows])
    high = np.array(highs[: len(rows)])
    low = high / 2
    binary = hysteresis_states(stack, high[:, None], low[:, None],
                               initial_state=initial_state)
    for row, h, lo, decided in zip(stack, high, low, binary):
        assert decided.tolist() == _hysteresis_loop(row, h, lo, initial_state)


# ---------------------------------------------------------------------------
# Threshold calibration
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 300)),
              elements=st.floats(min_value=1e-6, max_value=1e3)))
def test_row_percentile_equals_per_row_call(stack):
    per_row = np.array([np.percentile(row, 99.0) for row in stack])
    assert np.array_equal(np.percentile(stack, 99.0, axis=1), per_row)
    calibrator = ThresholdCalibrator()
    high, low = calibrator.thresholds_rows(stack)
    pairs = [calibrator.thresholds_from_peak(float(peak)) for peak in per_row]
    assert high.tolist() == [pair.high for pair in pairs]
    assert low.tolist() == [pair.low for pair in pairs]


# ---------------------------------------------------------------------------
# Peak position
# ---------------------------------------------------------------------------

def _windows_loop(samples_per_symbol, num_symbols, size):
    """The per-window edge rule of the scalar decision loop."""
    bounds = []
    for i in range(num_symbols):
        start = int(round(i * samples_per_symbol))
        stop = min(int(round((i + 1) * samples_per_symbol)), size)
        if stop - start < 2:
            stop = min(start + 2, size)
        bounds.append((start, stop))
    return bounds


def _row(kind, size, data):
    if kind == "zeros":
        return np.zeros(size, dtype=np.int64)
    if kind == "ones":
        return np.ones(size, dtype=np.int64)
    return data.draw(arrays(np.int64, size, elements=st.integers(0, 1)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_decode_windows_matches_locate_peak_loop(data):
    bits = data.draw(st.sampled_from(sorted(DECODERS)))
    decoder = DECODERS[bits]
    num_symbols = data.draw(st.integers(1, 8))
    samples_per_symbol = data.draw(st.one_of(st.just(2.0), st.floats(2.0, 9.0)))
    size = int(round(samples_per_symbol * num_symbols)) - data.draw(st.integers(0, 1))
    rows = data.draw(st.integers(1, 4))
    binary = np.stack([_row(data.draw(st.sampled_from(["random", "zeros", "ones"])),
                            size, data) for _ in range(rows)])
    # Few distinct levels, so argmax ties are common.
    envelope = data.draw(arrays(np.float64, (rows, size),
                                elements=st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0])))
    start, stop = symbol_windows(samples_per_symbol, num_symbols, size)
    bounds = _windows_loop(samples_per_symbol, num_symbols, size)
    assert list(zip(start.tolist(), stop.tolist())) == bounds
    symbols, from_comparator = decoder.decode_windows(binary, envelope, start, stop)
    for r in range(rows):
        for k, (lo, hi) in enumerate(bounds):
            observation = decoder.locate_peak(binary[r, lo:hi], envelope[r, lo:hi])
            expected = peak_position_to_symbol(min(observation.fraction, 1.0),
                                               decoder.alphabet_size)
            assert symbols[r, k] == expected
            assert from_comparator[r, k] == observation.from_comparator


@pytest.fixture(scope="module")
def vanilla():
    downlink = DownlinkParameters(spreading_factor=7, bandwidth_hz=500e3, bits_per_chirp=2)
    return VanillaSaiyanDemodulator(SaiyanConfig(downlink=downlink,
                                                 mode=SaiyanMode.VANILLA))


def _peak_decisions_loop(demodulator, envelope, num_symbols, thresholds):
    """The scalar decision loop: quantize, then ``locate_peak`` per window."""
    sampled, output = demodulator.quantizer.quantize(envelope, thresholds=thresholds)
    grid = np.asarray(sampled.samples, dtype=float)
    samples_per_symbol = (demodulator.config.downlink.symbol_duration_s
                          * sampled.sample_rate)
    decisions = []
    for lo, hi in _windows_loop(samples_per_symbol, num_symbols, output.binary.size):
        observation = demodulator.peak_decoder.locate_peak(output.binary[lo:hi],
                                                           grid[lo:hi])
        symbol = peak_position_to_symbol(min(observation.fraction, 1.0),
                                         demodulator.peak_decoder.alphabet_size)
        decisions.append(SymbolDecision(symbol=symbol,
                                        confidence=1.0 if observation.from_comparator else 0.5,
                                        used_correlation=False))
    return decisions


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_symbols=st.integers(1, 6),
       explicit=st.booleans())
def test_peak_position_stack_matches_scalar_loop(vanilla, seed, num_symbols, explicit):
    rng = np.random.default_rng(seed)
    config = vanilla.config
    rows = 3
    envelopes = rng.rayleigh(0.3, size=(rows, num_symbols * config.samples_per_symbol))
    envelopes[:, rng.integers(0, envelopes.shape[1], size=4 * num_symbols)] += 1.0
    thresholds = ThresholdPair(high=0.9, low=0.45) if explicit else None
    symbols, from_comparator = vanilla._peak_position_stack(
        envelopes, config.sample_rate, num_symbols, thresholds=thresholds)
    for r in range(rows):
        envelope = Signal(envelopes[r], config.sample_rate)
        expected = _peak_decisions_loop(vanilla, envelope, num_symbols, thresholds)
        assert symbols[r].tolist() == [d.symbol for d in expected]
        decided, decisions = vanilla.decide_envelope(envelope, num_symbols,
                                                     thresholds=thresholds)
        assert decisions == expected
        assert decided.tolist() == symbols[r].tolist()
    if not explicit:
        stacked = vanilla.decide_stack(envelopes, config.sample_rate, num_symbols)
        assert np.array_equal(stacked, symbols)


# ---------------------------------------------------------------------------
# Correlation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def correlator():
    downlink = DownlinkParameters(spreading_factor=7, bandwidth_hz=500e3, bits_per_chirp=2)
    return CorrelationDemodulator(SaiyanConfig(downlink=downlink, mode=SaiyanMode.SUPER))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alphabet=st.integers(4, 128),
       width=st.integers(1, 300), windows=st.integers(1, 12))
def test_batched_scores_equal_per_window_scores(correlator, seed, alphabet, width, windows):
    rng = np.random.default_rng(seed)
    bank = copy.copy(correlator)
    bank._templates = rng.standard_normal((alphabet, width))
    block = rng.standard_normal((windows, width))
    block[rng.random(windows) < 0.25] = 0.0  # zero-energy windows
    centered = block - np.mean(block, axis=1)[:, None]
    centered[0] = 0.0
    batched = bank.score_windows(centered)
    per_window = np.stack([bank._score_centered(window) for window in centered])
    assert np.array_equal(batched, per_window)
    assert not batched[0].any()
    norms = np.sqrt(centered[:, None, :] @ centered[:, :, None])[:, 0, 0]
    assert np.array_equal(norms, [np.linalg.norm(window) for window in centered])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_symbols=st.integers(1, 5))
def test_demodulate_stack_matches_per_window_decisions(correlator, seed, num_symbols):
    rng = np.random.default_rng(seed)
    n = correlator.samples_per_symbol
    envelopes = rng.rayleigh(0.5, size=(3, n * num_symbols + 7))
    envelopes[1, :n] = 0.0  # a silent, zero-energy window
    symbols, correlations = correlator.demodulate_stack(envelopes, num_symbols)
    for r, row in enumerate(envelopes):
        for k in range(num_symbols):
            window = row[k * n:(k + 1) * n]
            scores = correlator._score_centered(window - np.mean(window))
            assert symbols[r, k] == int(np.argmax(scores))
            assert correlations[r, k] == scores[symbols[r, k]]
    assert symbols[1, 0] == 0 and correlations[1, 0] == 0.0


# ---------------------------------------------------------------------------
# Aloba longest run
# ---------------------------------------------------------------------------

def _longest_run_loop(mask):
    longest = current = 0
    for flag in mask:
        current = current + 1 if flag else 0
        longest = max(longest, current)
    return longest


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), max_size=200))
def test_longest_run_matches_loop(flags):
    assert longest_run(np.array(flags, dtype=bool)) == _longest_run_loop(flags)


# ---------------------------------------------------------------------------
# Every registered sweep: serial reference == burst kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sweep_names())
def test_every_sweep_engines_and_shards_agree(name):
    spec = get_sweep(name).with_(num_symbols=8)
    reference = run_sweep(spec, engine="serial", random_state=5)
    for shards in (1, 2):
        batched = run_sweep(spec, engine="batch", shards=shards, random_state=5)
        assert batched.cells == reference.cells, shards
