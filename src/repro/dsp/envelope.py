"""Envelope extraction.

:func:`envelope_magnitude` is the ideal (coherent) envelope ``|x|`` used by
analysis code and by the standard LoRa receiver model.  The physically
faithful square-law detector of the tag, with the self-mixing products of
Equation 4, is :class:`~repro.hardware.envelope_detector.EnvelopeDetector`.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.signals import Signal


def envelope_magnitude(signal: Signal) -> Signal:
    """Return the ideal magnitude envelope ``|x|`` of ``signal``."""
    return signal.with_samples(np.abs(np.asarray(signal.samples)),
                               label=f"{signal.label}|env")
