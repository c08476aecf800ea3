"""Unit tests for the ADC model."""

import numpy as np
import pytest

from repro.dsp.signals import Signal
from repro.exceptions import ConfigurationError
from repro.hardware.adc import ADC

FS = 2e6


# ---------------------------------------------------------------------------
# ADC
# ---------------------------------------------------------------------------

def test_adc_output_rate():
    adc = ADC(sampling_rate_hz=1e6, resolution_bits=12)
    waveform = Signal(np.sin(2 * np.pi * 1e3 * np.arange(20_000) / FS), FS)
    digitized = adc.digitize(waveform)
    assert digitized.sample_rate == pytest.approx(1e6)


def test_adc_quantization_error_bounded_by_lsb():
    adc = ADC(sampling_rate_hz=FS, resolution_bits=10, full_scale=1.0)
    values = np.linspace(-0.99, 0.99, 5000)
    digitized = adc.digitize(Signal(values, FS))
    lsb = 2.0 / 2**10
    assert np.max(np.abs(np.asarray(digitized.samples) - values)) <= lsb


def test_adc_clips_out_of_range_input():
    adc = ADC(sampling_rate_hz=FS, resolution_bits=8, full_scale=1.0)
    digitized = adc.digitize(Signal(np.array([5.0, -5.0]), FS))
    assert np.max(np.asarray(digitized.samples)) <= 1.0
    assert np.min(np.asarray(digitized.samples)) >= -1.0


def test_adc_handles_complex_signals():
    adc = ADC(sampling_rate_hz=FS, resolution_bits=12)
    waveform = Signal(np.exp(1j * 2 * np.pi * 1e3 * np.arange(1000) / FS), FS)
    digitized = adc.digitize(waveform)
    assert digitized.is_complex


def test_adc_power_scales_with_rate_and_dominates_saiyan():
    adc = ADC(sampling_rate_hz=1e6)
    # The ADC alone draws tens of mW -- orders of magnitude above Saiyan.
    assert adc.average_power_uw() > 1_000.0


def test_adc_validation():
    with pytest.raises(Exception):
        ADC(sampling_rate_hz=0.0)
    with pytest.raises(Exception):
        ADC(sampling_rate_hz=1e6, resolution_bits=0)
    with pytest.raises(ConfigurationError):
        ADC(sampling_rate_hz=1e6).digitize(np.ones(5))
