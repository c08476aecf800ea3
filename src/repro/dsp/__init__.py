"""Digital signal processing substrate.

The building blocks the hardware and receiver models run on: a
:class:`~repro.dsp.signals.Signal` container that couples a sample array
with its sample rate, chirp synthesis, FIR filtering and frequency-domain
shaping, the ideal magnitude envelope, AWGN and flicker noise, and the
sliding correlations of the PLoRa packet detector.  Nothing here imports
SciPy at module load.
"""

from repro.dsp.signals import Signal
from repro.dsp.chirp import (
    chirp_waveform,
    lora_symbol_waveform,
    lora_upchirp,
    lora_downchirp,
    instantaneous_frequency,
)
from repro.dsp.filters import (
    moving_average,
    fir_lowpass,
    fir_bandpass,
    apply_fir,
    lowpass_filter,
    bandpass_filter,
    frequency_domain_gain,
)
from repro.dsp.envelope import envelope_magnitude
from repro.dsp.noise import (
    awgn_samples,
    add_awgn,
    add_awgn_snr,
    noise_power_dbm,
    flicker_noise,
)
from repro.dsp.correlator import cross_correlate, normalized_correlation

__all__ = [
    "Signal",
    "chirp_waveform",
    "lora_symbol_waveform",
    "lora_upchirp",
    "lora_downchirp",
    "instantaneous_frequency",
    "moving_average",
    "fir_lowpass",
    "fir_bandpass",
    "apply_fir",
    "lowpass_filter",
    "bandpass_filter",
    "frequency_domain_gain",
    "envelope_magnitude",
    "awgn_samples",
    "add_awgn",
    "add_awgn_snr",
    "noise_power_dbm",
    "flicker_noise",
    "cross_correlate",
    "normalized_correlation",
]
