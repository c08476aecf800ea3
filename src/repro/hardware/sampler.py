"""Low-power voltage sampler.

The MCU reads the comparator output into a counter at a configurable rate
(§2.3).  The rate trades power for decoding accuracy: Nyquist requires
``2 * BW / 2^(SF-K)`` but the paper finds ``3.2 * BW / 2^(SF-K)`` is needed
in practice (Table 1).  The model sub-samples the densely simulated
comparator waveform onto the MCU's sampling grid — deliberately without an
anti-aliasing filter, because the real hardware has none in this path.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.signals import Signal
from repro.exceptions import ConfigurationError
from repro.hardware.component import Component, PowerProfile
from repro.utils.validation import ensure_positive


class VoltageSampler(Component):
    """Samples a continuous-time waveform at the MCU's sampling rate.

    Parameters
    ----------
    sampling_rate_hz:
        The MCU sampling rate.
    power_per_khz_uw:
        Power drawn per kHz of sampling rate (models the linear scaling of
        GPIO/timer activity with sampling rate).
    """

    def __init__(self, sampling_rate_hz: float, *, power_per_khz_uw: float = 0.05) -> None:
        sampling_rate_hz = ensure_positive(sampling_rate_hz, "sampling_rate_hz")
        power = PowerProfile(active_power_uw=power_per_khz_uw * sampling_rate_hz / 1e3)
        super().__init__("voltage_sampler", power)
        self.sampling_rate_hz = sampling_rate_hz

    def sample(self, waveform: Signal) -> Signal:
        """Return ``waveform`` sub-sampled onto this sampler's grid.

        The sampler picks the waveform value at each of its own sampling
        instants (zero-order hold of the analog waveform).  When the
        requested rate exceeds the waveform's rate the waveform is simply
        repeated per the hold behaviour.
        """
        if not isinstance(waveform, Signal):
            raise ConfigurationError(f"expected a Signal, got {type(waveform).__name__}")
        indices = self.grid_indices(len(waveform), waveform.sample_rate)
        samples = np.asarray(waveform.samples)[indices]
        return Signal(samples, self.sampling_rate_hz, carrier_hz=waveform.carrier_hz,
                      label=f"{waveform.label}|sampled@{self.sampling_rate_hz:g}Hz")

    def grid_indices(self, num_samples: int, sample_rate: float) -> np.ndarray:
        """Indices of the ``num_samples``-long waveform at ``sample_rate`` that
        this sampler picks (one per sampling instant).

        Depends only on the length and rate, so equal-length rows of a stack
        share one index array.
        """
        duration = num_samples / sample_rate
        n_out = max(int(np.floor(duration * self.sampling_rate_hz)), 1)
        sample_times = np.arange(n_out) / self.sampling_rate_hz
        return np.minimum((sample_times * sample_rate).astype(int), num_samples - 1)

    def samples_per_duration(self, duration_s: float) -> int:
        """Number of samples this sampler takes over ``duration_s`` seconds."""
        ensure_positive(duration_s, "duration_s")
        return max(int(np.floor(duration_s * self.sampling_rate_hz)), 1)
