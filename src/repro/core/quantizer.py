"""Threshold calibration and envelope quantization (§2.2, §4.1).

The double-threshold comparator needs its two thresholds ``UH`` and ``UL``
set relative to the expected envelope peak.  The paper's rule (§4.1) is
``UH = Amax / 10^(G/20)`` for a gap ``G`` and ``UL = UH - UF`` where ``UF``
is the envelope detector's output swing; in practice the thresholds are
looked up from an offline table indexed by link distance (RSS).

:class:`ThresholdCalibrator` implements both the rule and the lookup table;
:class:`SaiyanQuantizer` couples the calibrated comparator with the MCU's
voltage sampler to turn an analog envelope into the binary sequence the
decoder consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SaiyanConfig
from repro.dsp.signals import Signal
from repro.exceptions import ConfigurationError, DemodulationError
from repro.hardware.comparator import (
    ComparatorOutput,
    DoubleThresholdComparator,
    hysteresis_states,
)
from repro.hardware.sampler import VoltageSampler
from repro.utils.validation import ensure_positive


@dataclass(frozen=True)
class ThresholdPair:
    """A calibrated ``(UH, UL)`` pair."""

    high: float
    low: float

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ConfigurationError(
                f"low threshold ({self.low}) must be below high threshold ({self.high})"
            )


class ThresholdCalibrator:
    """Computes comparator thresholds from expected peak amplitudes.

    Parameters
    ----------
    gap_db:
        The gap ``G`` between the peak amplitude and ``UH``.
    hysteresis_fraction:
        ``(UH - UL) / UH``, the relative width of the hysteresis window.
    """

    def __init__(self, *, gap_db: float = 3.0, hysteresis_fraction: float = 0.5) -> None:
        self.gap_db = ensure_positive(gap_db, "gap_db")
        if not 0 < hysteresis_fraction < 1:
            raise ConfigurationError(
                f"hysteresis_fraction must be in (0, 1), got {hysteresis_fraction}")
        self.hysteresis_fraction = float(hysteresis_fraction)
        self._distance_table: list[tuple[float, ThresholdPair]] = []

    # ------------------------------------------------------------------
    def thresholds_from_peak(self, peak_amplitude: float) -> ThresholdPair:
        """Apply the §4.1 rule to an expected peak amplitude."""
        ensure_positive(peak_amplitude, "peak_amplitude")
        high, low = self._rule(peak_amplitude)
        return ThresholdPair(high=high, low=low)

    def _rule(self, peak):
        """``(UH, UL)`` of the §4.1 rule for a peak amplitude or an array of them."""
        high = peak / (10.0 ** (self.gap_db / 20.0))
        return high, high * (1.0 - self.hysteresis_fraction)

    def thresholds_from_envelope(self, envelope: Signal | np.ndarray) -> ThresholdPair:
        """Calibrate from an observed envelope (e.g. the preamble chirps).

        The peak amplitude estimate uses a high percentile rather than the
        absolute maximum so that a single noise spike cannot inflate ``UH``.
        """
        samples = np.asarray(envelope.samples if isinstance(envelope, Signal) else envelope,
                             dtype=float)
        high, low = self.thresholds_rows(samples.reshape(1, -1))
        return ThresholdPair(high=float(high[0]), low=float(low[0]))

    def thresholds_rows(self, envelopes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-row ``(UH, UL)`` arrays of a ``(rows, samples)`` envelope stack.

        Row ``i`` gets the pair :meth:`thresholds_from_envelope` calibrates
        from ``envelopes[i]``: ``np.percentile`` along axis 1 equals the
        per-row call bit for bit.
        """
        envelopes = np.asarray(envelopes, dtype=float)
        if envelopes.size == 0:
            raise DemodulationError("cannot calibrate thresholds from an empty envelope")
        peaks = np.percentile(envelopes, 99.0, axis=1)
        if np.any(peaks <= 0):
            raise DemodulationError("envelope has no positive samples to calibrate from")
        high, low = self._rule(peaks)
        if not np.all(low < high):
            raise ConfigurationError("envelope peak amplitude is not finite")
        return high, low

    # ------------------------------------------------------------------
    # Offline mapping table (§4.1: thresholds stored per link distance)
    # ------------------------------------------------------------------
    def store_distance_entry(self, distance_m: float, peak_amplitude: float) -> None:
        """Record the measured peak amplitude at ``distance_m`` in the lookup table."""
        ensure_positive(distance_m, "distance_m")
        pair = self.thresholds_from_peak(peak_amplitude)
        self._distance_table.append((float(distance_m), pair))
        self._distance_table.sort(key=lambda item: item[0])

    def thresholds_for_distance(self, distance_m: float) -> ThresholdPair:
        """Look up (nearest-neighbour) the thresholds for a link distance."""
        ensure_positive(distance_m, "distance_m")
        if not self._distance_table:
            raise DemodulationError("the distance->threshold table is empty; "
                                    "store entries with store_distance_entry first")
        distances = np.array([d for d, _ in self._distance_table])
        index = int(np.argmin(np.abs(distances - distance_m)))
        return self._distance_table[index][1]

    @property
    def table_size(self) -> int:
        """Number of stored distance entries."""
        return len(self._distance_table)


class SaiyanQuantizer:
    """Envelope -> MCU binary sequence.

    Combines the double-threshold comparator (Equation 3) with the MCU
    voltage sampler running at the Table 1 rate.

    Parameters
    ----------
    config:
        Saiyan configuration (supplies the sampling rate and comparator
        shape parameters).
    calibrator:
        Threshold calibrator; defaults to one built from the configuration.
    """

    def __init__(self, config: SaiyanConfig, *,
                 calibrator: ThresholdCalibrator | None = None) -> None:
        if not isinstance(config, SaiyanConfig):
            raise ConfigurationError(f"expected a SaiyanConfig, got {type(config).__name__}")
        self.config = config
        self.calibrator = calibrator if calibrator is not None else ThresholdCalibrator(
            gap_db=config.comparator_gap_db,
            hysteresis_fraction=config.comparator_hysteresis_fraction,
        )
        self.sampler = VoltageSampler(config.mcu_sampling_rate_hz)

    # ------------------------------------------------------------------
    def build_comparator(self, thresholds: ThresholdPair) -> DoubleThresholdComparator:
        """Instantiate the hardware comparator for a calibrated threshold pair."""
        return DoubleThresholdComparator(thresholds.high, thresholds.low)

    def quantize(self, envelope: Signal, *, thresholds: ThresholdPair | None = None,
                 sample_first: bool = True) -> tuple[Signal, ComparatorOutput]:
        """Quantize an analog envelope into the MCU's binary sequence.

        Parameters
        ----------
        envelope:
            The front-end envelope output.
        thresholds:
            Calibrated thresholds; if omitted they are derived from the
            envelope itself (self-calibration on the observed waveform).
        sample_first:
            If true (the hardware order), the envelope is first sampled at
            the MCU rate and then compared; if false the comparator runs at
            the analog rate (useful for high-resolution diagnostics).

        Returns
        -------
        (sampled, output):
            ``sampled`` is the envelope on the grid the comparator saw;
            ``output`` is the comparator's binary decision record.
        """
        if not isinstance(envelope, Signal):
            raise ConfigurationError(f"expected a Signal, got {type(envelope).__name__}")
        if thresholds is None:
            thresholds = self.calibrator.thresholds_from_envelope(envelope)
        comparator = self.build_comparator(thresholds)
        target = self.sampler.sample(envelope) if sample_first else envelope
        output = comparator.quantize(target)
        return target, output

    def quantize_rows(self, envelopes: np.ndarray, sample_rate: float, *,
                      thresholds: ThresholdPair | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Quantize a ``(rows, samples)`` stack of envelopes at ``sample_rate``.

        Row ``i`` of the returned ``(grid, binary)`` pair equals the sampled
        envelope and comparator output :meth:`quantize` gives for
        ``Signal(envelopes[i], sample_rate)`` in the hardware order (sample,
        then compare).  Every row has the same length, so one sampler index
        array serves the whole stack; thresholds are calibrated per row
        unless ``thresholds`` fixes one pair for all rows.
        """
        envelopes = np.asarray(envelopes, dtype=float)
        if thresholds is None:
            high, low = self.calibrator.thresholds_rows(envelopes)
            high, low = high[:, None], low[:, None]
        else:
            high, low = thresholds.high, thresholds.low
        grid = envelopes[:, self.sampler.grid_indices(envelopes.shape[1], sample_rate)]
        return grid, hysteresis_states(grid, high, low)
