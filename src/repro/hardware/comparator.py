"""Voltage comparators: single-threshold and the double-threshold design.

Saiyan replaces the power-hungry ADC with a low-power comparator (NCS2202).
A single threshold chatters when noise pushes the envelope across the cut
line repeatedly (Figure 7c/7d).  The double-threshold (hysteresis) design of
Equation 3 uses a high threshold ``UH`` to enter the high state and a low
threshold ``UL`` to leave it, producing one clean high pulse per amplitude
peak whose trailing edge marks the peak position (Figure 7e).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.signals import Signal
from repro.exceptions import ConfigurationError
from repro.hardware.component import Component, PowerProfile


@dataclass(frozen=True)
class ComparatorOutput:
    """Result of quantizing an envelope with a comparator.

    Attributes
    ----------
    binary:
        The 0/1 output sequence, one entry per input sample.
    transitions_to_high:
        Sample indices where the output rose from 0 to 1.
    transitions_to_low:
        Sample indices where the output fell from 1 to 0.  For the
        double-threshold comparator the falling edge marks the envelope
        peak position (tail of the high pulse, Figure 7e).
    """

    binary: np.ndarray
    transitions_to_high: np.ndarray
    transitions_to_low: np.ndarray

    @property
    def num_chatters(self) -> int:
        """Number of extra high pulses beyond the first (chattering measure)."""
        return max(int(self.transitions_to_high.size) - 1, 0)


def _edges(binary: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    diff = np.diff(binary.astype(np.int64), prepend=binary[0])
    rising = np.where(diff == 1)[0]
    falling = np.where(diff == -1)[0]
    if binary[0] == 1:
        rising = np.concatenate([[0], rising])
    return rising, falling


def hysteresis_states(samples: np.ndarray, high, low, *,
                      initial_state: int = 0) -> np.ndarray:
    """Equation 3 applied along the last axis of ``samples``.

    Because ``low < high``, a sample at or above ``high`` sets the output
    to 1 and a sample below ``low`` sets it to 0 whatever the previous
    state; every other sample (including NaN) holds it.  The output is
    therefore the value of the last such "decisive" sample, a forward fill
    computed with ``np.maximum.accumulate`` over sample indices and seeded
    with ``initial_state``.  ``high`` and ``low`` are scalars or arrays
    broadcasting against ``samples`` (one threshold pair per row of a 2-D
    stack).
    """
    samples = np.asarray(samples, dtype=float)
    is_high = samples >= high
    decisive = is_high | (samples < low)
    last = np.maximum.accumulate(
        np.where(decisive, np.arange(samples.shape[-1]), -1), axis=-1)
    held = np.take_along_axis(is_high, np.maximum(last, 0), axis=-1)
    return np.where(last >= 0, held, bool(initial_state)).astype(np.int64)


class SingleThresholdComparator(Component):
    """A comparator with one threshold (used as the Figure 7 strawman).

    Parameters
    ----------
    threshold:
        Output is high whenever the input is at or above this value.
    """

    def __init__(self, threshold: float, *, active_power_uw: float = 14.45,
                 cost_usd: float = 1.26) -> None:
        super().__init__("comparator", PowerProfile(active_power_uw=active_power_uw,
                                                    cost_usd=cost_usd))
        self.threshold = float(threshold)

    def quantize(self, envelope: Signal | np.ndarray) -> ComparatorOutput:
        """Quantize an envelope into a binary sequence."""
        samples = _envelope_samples(envelope)
        binary = (samples >= self.threshold).astype(np.int64)
        rising, falling = _edges(binary)
        return ComparatorOutput(binary=binary, transitions_to_high=rising,
                                transitions_to_low=falling)


class DoubleThresholdComparator(Component):
    """The hysteresis comparator of Equation 3.

    Parameters
    ----------
    high_threshold:
        ``UH``: the level required to switch the output high when it is low.
    low_threshold:
        ``UL``: the level below which the output returns low.  Must be
        strictly below ``high_threshold``.
    """

    def __init__(self, high_threshold: float, low_threshold: float, *,
                 active_power_uw: float = 14.45, cost_usd: float = 1.26) -> None:
        super().__init__("comparator", PowerProfile(active_power_uw=active_power_uw,
                                                    cost_usd=cost_usd))
        if not low_threshold < high_threshold:
            raise ConfigurationError(
                f"low_threshold ({low_threshold}) must be strictly below "
                f"high_threshold ({high_threshold})"
            )
        self.high_threshold = float(high_threshold)
        self.low_threshold = float(low_threshold)

    def quantize(self, envelope: Signal | np.ndarray, *,
                 initial_state: int = 0) -> ComparatorOutput:
        """Quantize an envelope with hysteresis (Equation 3).

        Parameters
        ----------
        envelope:
            Amplitude samples ``A_i``.
        initial_state:
            The output state ``B_{i-1}`` before the first sample (0 or 1).
        """
        if initial_state not in (0, 1):
            raise ConfigurationError(f"initial_state must be 0 or 1, got {initial_state}")
        samples = _envelope_samples(envelope)
        binary = hysteresis_states(samples, self.high_threshold, self.low_threshold,
                                   initial_state=initial_state)
        rising, falling = _edges(binary)
        return ComparatorOutput(binary=binary, transitions_to_high=rising,
                                transitions_to_low=falling)

    @classmethod
    def from_peak_amplitude(cls, peak_amplitude: float, *, gap_db: float = 3.0,
                            hysteresis_fraction: float = 0.5,
                            **kwargs) -> "DoubleThresholdComparator":
        """Build a comparator from the expected peak amplitude (§4.1 rule).

        The paper sets ``UH = Amax / 10^(G/20)`` for a configured gap ``G``
        (in dB) and ``UL = UH - UF`` where ``UF`` reflects the envelope
        detector's output swing; here ``UF`` is expressed as a fraction of
        ``UH`` through ``hysteresis_fraction``.
        """
        if peak_amplitude <= 0:
            raise ConfigurationError(f"peak_amplitude must be positive, got {peak_amplitude}")
        if gap_db <= 0:
            raise ConfigurationError(f"gap_db must be positive, got {gap_db}")
        if not 0 < hysteresis_fraction < 1:
            raise ConfigurationError(
                f"hysteresis_fraction must be in (0, 1), got {hysteresis_fraction}")
        high = peak_amplitude / (10.0 ** (gap_db / 20.0))
        low = high * (1.0 - hysteresis_fraction)
        return cls(high, low, **kwargs)


def _envelope_samples(envelope: Signal | np.ndarray) -> np.ndarray:
    if isinstance(envelope, Signal):
        samples = np.asarray(envelope.samples)
    else:
        samples = np.asarray(envelope)
    if samples.ndim != 1 or samples.size == 0:
        raise ConfigurationError("envelope must be a non-empty 1-D array or Signal")
    if np.iscomplexobj(samples):
        samples = np.abs(samples)
    return samples.astype(float)
