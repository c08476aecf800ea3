"""Rate conversion: decimation and arbitrary resampling.

The Saiyan MCU samples the comparator output at a rate far below the chirp
bandwidth (Table 1).  These helpers convert the densely simulated analog
waveforms down to the MCU's sampling grid.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.filters import scipy_signal
from repro.dsp.signals import Signal
from repro.exceptions import ConfigurationError
from repro.utils.validation import ensure_integer, ensure_positive


def decimate(signal: Signal, factor: int, *, anti_alias: bool = True) -> Signal:
    """Keep every ``factor``-th sample, optionally low-pass filtering first.

    With ``anti_alias=False`` the function performs plain sub-sampling, which
    models the MCU's voltage sampler reading the comparator output at fixed
    intervals (there is no analog anti-aliasing filter in that path, and the
    comparator output is a binary waveform anyway).
    """
    factor = ensure_integer(factor, "factor", minimum=1)
    samples = np.asarray(signal.samples)
    if factor == 1:
        return signal
    if anti_alias:
        decimated = scipy_signal().decimate(samples, factor, ftype="fir", zero_phase=True)
    else:
        decimated = samples[::factor]
    return Signal(decimated, signal.sample_rate / factor,
                  carrier_hz=signal.carrier_hz, label=f"{signal.label}|dec{factor}")


def resample_to_rate(signal: Signal, target_rate: float, *,
                     anti_alias: bool = True) -> Signal:
    """Resample ``signal`` to ``target_rate`` using polyphase filtering.

    With ``anti_alias=False`` and an integer ratio the function falls back to
    plain sub-sampling (see :func:`decimate`); otherwise scipy's polyphase
    resampler is used, which both interpolates and band-limits.
    """
    ensure_positive(target_rate, "target_rate")
    if np.isclose(target_rate, signal.sample_rate):
        return signal
    ratio = signal.sample_rate / target_rate
    if not anti_alias and ratio >= 1 and np.isclose(ratio, round(ratio)):
        return decimate(signal, int(round(ratio)), anti_alias=False)
    # Find a rational approximation of the rate change.
    from fractions import Fraction

    frac = Fraction(float(target_rate) / float(signal.sample_rate)).limit_denominator(10_000)
    up, down = frac.numerator, frac.denominator
    if up < 1 or down < 1:
        raise ConfigurationError(
            f"cannot resample from {signal.sample_rate} Hz to {target_rate} Hz"
        )
    resampled = scipy_signal().resample_poly(np.asarray(signal.samples), up, down)
    actual_rate = signal.sample_rate * up / down
    return Signal(resampled, actual_rate, carrier_hz=signal.carrier_hz,
                  label=f"{signal.label}|rs{target_rate:g}")
