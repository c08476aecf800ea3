"""Aloba baseline (Guo et al., SenSys 2020).

Aloba rides on ambient LoRa traffic using ON-OFF keying.  Its tag-side
packet detector feeds the incident signal into a moving-average filter and
looks for the characteristic RSSI pattern of a LoRa preamble — a sustained,
stable power rise lasting several symbol times.  Like PLoRa it cannot
demodulate payload symbols, and because it relies on raw RSSI (an envelope
quantity) its detection sensitivity is close to the conventional
envelope-detector bound.
"""

from __future__ import annotations

import numpy as np

from repro.constants import ENVELOPE_DETECTOR_SENSITIVITY_DBM
from repro.dsp.envelope import envelope_magnitude
from repro.dsp.filters import moving_average
from repro.dsp.signals import Signal
from repro.exceptions import ConfigurationError
from repro.lora.parameters import LoRaParameters
from repro.utils.validation import ensure_positive

#: Detection sensitivity of Aloba's RSSI-pattern detector (approximately the
#: conventional-envelope-detector bound of §5.2.1).
ALOBA_DETECTION_SENSITIVITY_DBM: float = ENVELOPE_DETECTOR_SENSITIVITY_DBM


def longest_run(mask: np.ndarray) -> int:
    """Length of the longest run of consecutive true samples in ``mask``.

    Runs start where the zero-padded mask steps up and end where it steps
    down, so their lengths come from one ``np.diff``.
    """
    steps = np.diff(np.concatenate(([0], np.asarray(mask, dtype=np.int8), [0])))
    runs = np.flatnonzero(steps == -1) - np.flatnonzero(steps == 1)
    return int(runs.max()) if runs.size else 0


class AlobaDetector:
    """Moving-average RSSI-pattern packet detector of an Aloba tag.

    Parameters
    ----------
    parameters:
        LoRa air interface of the ambient carrier.
    oversampling:
        Samples per chip of the supplied waveforms.
    window_symbols:
        Moving-average window expressed in symbol durations.
    rise_factor:
        Power rise (linear) over the pre-packet noise floor required to
        declare a packet.
    min_duration_symbols:
        Number of symbol durations the rise must persist (the LoRa preamble
        provides ten).
    """

    name = "aloba"
    detection_sensitivity_dbm = ALOBA_DETECTION_SENSITIVITY_DBM
    can_demodulate_payload = False

    def __init__(self, parameters: LoRaParameters | None = None, *,
                 oversampling: int = 4, window_symbols: float = 0.5,
                 rise_factor: float = 2.0, min_duration_symbols: float = 4.0) -> None:
        self.parameters = parameters if parameters is not None else LoRaParameters()
        if oversampling < 1:
            raise ConfigurationError(f"oversampling must be >= 1, got {oversampling}")
        self.oversampling = int(oversampling)
        self.window_symbols = ensure_positive(window_symbols, "window_symbols")
        self.rise_factor = ensure_positive(rise_factor, "rise_factor")
        self.min_duration_symbols = ensure_positive(min_duration_symbols,
                                                    "min_duration_symbols")

    @property
    def sample_rate(self) -> float:
        """Expected input sample rate."""
        return self.parameters.bandwidth_hz * self.oversampling

    @property
    def samples_per_symbol(self) -> int:
        """Input samples per LoRa symbol."""
        return int(round(self.parameters.symbol_duration_s * self.sample_rate))

    # ------------------------------------------------------------------
    def rssi_profile(self, waveform: Signal) -> Signal:
        """Return the moving-average power profile Aloba thresholds against."""
        if not isinstance(waveform, Signal):
            raise ConfigurationError(f"expected a Signal, got {type(waveform).__name__}")
        if not np.isclose(waveform.sample_rate, self.sample_rate, rtol=1e-6):
            raise ConfigurationError(
                f"waveform sample rate {waveform.sample_rate} Hz does not match "
                f"the detector's expected rate {self.sample_rate} Hz"
            )
        power = envelope_magnitude(waveform).with_samples(
            np.abs(np.asarray(waveform.samples)) ** 2)
        window = max(int(round(self.window_symbols * self.samples_per_symbol)), 1)
        return moving_average(power, window)

    def detect(self, waveform: Signal, *, noise_floor: float | None = None) -> bool:
        """Whether the RSSI pattern of a LoRa preamble is present.

        Parameters
        ----------
        waveform:
            Received waveform (ideally starting before the packet so the
            noise floor can be estimated from its head).
        noise_floor:
            Pre-measured noise power; when omitted it is estimated from the
            first symbol-duration of the waveform.
        """
        profile = np.asarray(self.rssi_profile(waveform).samples, dtype=float)
        n_sym = self.samples_per_symbol
        if noise_floor is None:
            head = profile[: max(n_sym // 2, 1)]
            noise_floor = float(np.median(head)) if head.size else 0.0
        threshold = max(noise_floor, 1e-30) * self.rise_factor
        above = profile > threshold
        required = int(round(self.min_duration_symbols * n_sym))
        if required <= 0:
            return bool(np.any(above))
        return longest_run(above) >= required

    # ------------------------------------------------------------------
    @classmethod
    def detects_at_rss(cls, rss_dbm: float) -> bool:
        """Link-level detection decision used by the fast simulator."""
        return rss_dbm >= cls.detection_sensitivity_dbm
