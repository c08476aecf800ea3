"""Unit tests for envelope extraction."""

import numpy as np

from repro.dsp.envelope import envelope_magnitude
from repro.dsp.signals import Signal

FS = 1e6


def test_envelope_magnitude_of_complex_tone_is_constant():
    t = np.arange(4096) / FS
    signal = Signal(0.7 * np.exp(1j * 2 * np.pi * 50e3 * t), FS)
    envelope = envelope_magnitude(signal)
    np.testing.assert_allclose(envelope.samples, 0.7, rtol=1e-9)
