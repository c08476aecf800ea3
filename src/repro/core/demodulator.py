"""Symbol-level Saiyan demodulators.

Two demodulators share the analog front end and differ in the decision
stage:

* :class:`VanillaSaiyanDemodulator` (§2) — double-threshold comparator plus
  peak-position decoding on the MCU-sampled binary sequence.
* :class:`SuperSaiyanDemodulator` (§3) — the cyclic-frequency-shifting
  envelope plus correlation decisions against local templates (falling back
  to peak-position decoding when the correlator is disabled by the mode).

Both operate on an already payload-aligned waveform; packet-level preamble
detection and sync handling live in :mod:`repro.core.decoder`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SaiyanConfig, SaiyanMode
from repro.core.correlation import CorrelationDemodulator
from repro.core.frontend import AnalogFrontEnd, FrontEndOutput
from repro.core.peak_detection import PeakPositionDecoder, peak_position_to_symbol
from repro.core.quantizer import SaiyanQuantizer, ThresholdPair
from repro.dsp.signals import Signal
from repro.exceptions import ConfigurationError, DemodulationError
from repro.lora.packet import symbols_to_bits
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import ensure_integer


@dataclass(frozen=True)
class SymbolDecision:
    """One demodulated symbol with its decision metadata."""

    symbol: int
    confidence: float
    used_correlation: bool


@dataclass
class PayloadDemodulation:
    """Result of demodulating a payload waveform."""

    symbols: np.ndarray
    bits: np.ndarray
    decisions: list[SymbolDecision]
    envelope: Signal

    @property
    def num_symbols(self) -> int:
        """Number of demodulated symbols."""
        return int(self.symbols.size)


class _SaiyanDemodulatorBase:
    """Shared machinery of the vanilla and super demodulators."""

    def __init__(self, config: SaiyanConfig, *, frontend: AnalogFrontEnd | None = None) -> None:
        if not isinstance(config, SaiyanConfig):
            raise ConfigurationError(f"expected a SaiyanConfig, got {type(config).__name__}")
        self.config = config
        self.frontend = frontend if frontend is not None else AnalogFrontEnd(config)
        self.quantizer = SaiyanQuantizer(config)
        self.peak_decoder = PeakPositionDecoder(config)
        self._correlator: CorrelationDemodulator | None = None

    # ------------------------------------------------------------------
    @property
    def correlator(self) -> CorrelationDemodulator:
        """Lazily constructed correlation demodulator (templates are costly)."""
        if self._correlator is None:
            self._correlator = CorrelationDemodulator(self.config, frontend=self.frontend)
        return self._correlator

    @property
    def samples_per_symbol(self) -> int:
        """Analog samples per downlink chirp."""
        return self.config.samples_per_symbol

    def _bits_from_symbols(self, symbols: np.ndarray) -> np.ndarray:
        return symbols_to_bits(symbols, self.config.downlink.bits_per_chirp)

    # ------------------------------------------------------------------
    def _decide_peak_position(self, envelope: Signal, num_symbols: int, *,
                              thresholds: ThresholdPair | None = None
                              ) -> tuple[np.ndarray, list[SymbolDecision]]:
        """Comparator + peak-position decisions for every symbol window."""
        sampled, output = self.quantizer.quantize(envelope, thresholds=thresholds)
        binary = output.binary
        envelope_grid = np.asarray(sampled.samples, dtype=float)
        # Symbol windows are laid out on the MCU sampling grid using the
        # exact (possibly fractional) number of samples per symbol so that
        # timing does not drift across a long payload.
        samples_per_symbol = (self.config.downlink.symbol_duration_s
                              * sampled.sample_rate)
        if samples_per_symbol < 2:
            raise DemodulationError(
                "MCU sampling rate too low for peak-position decoding "
                f"({samples_per_symbol:.2f} samples per symbol)"
            )
        if binary.size < int(round(samples_per_symbol * num_symbols)) - 1:
            raise DemodulationError(
                "binary sequence shorter than the requested number of symbols "
                f"({binary.size} samples for {num_symbols} symbols)"
            )
        symbols = np.empty(num_symbols, dtype=np.int64)
        decisions: list[SymbolDecision] = []
        for i in range(num_symbols):
            start = int(round(i * samples_per_symbol))
            stop = min(int(round((i + 1) * samples_per_symbol)), binary.size)
            if stop - start < 2:
                stop = min(start + 2, binary.size)
            win_bin = binary[start:stop]
            win_env = envelope_grid[start:stop]
            observation = self.peak_decoder.locate_peak(win_bin, win_env)
            symbol = peak_position_to_symbol(min(observation.fraction, 1.0),
                                             self.peak_decoder.alphabet_size)
            symbols[i] = symbol
            confidence = 1.0 if observation.from_comparator else 0.5
            decisions.append(SymbolDecision(symbol=symbol, confidence=confidence,
                                            used_correlation=False))
        return symbols, decisions

    def _decide_correlation(self, envelope: Signal, num_symbols: int
                            ) -> tuple[np.ndarray, list[SymbolDecision]]:
        """Correlation decisions for every symbol window."""
        symbols, correlations = self.correlator.demodulate(envelope, num_symbols)
        decisions = [SymbolDecision(symbol=int(s), confidence=float(c), used_correlation=True)
                     for s, c in zip(symbols, correlations)]
        return symbols, decisions

    # ------------------------------------------------------------------
    def decide_envelope(self, envelope: Signal, num_symbols: int, *,
                        thresholds: ThresholdPair | None = None
                        ) -> tuple[np.ndarray, list[SymbolDecision]]:
        """Run the decision stage only: front-end envelope -> symbols.

        This is the exact decision code :meth:`demodulate_payload` uses after
        the analog front end; the vectorized burst kernel
        (:mod:`repro.sim.waveform_engine`) computes the envelopes of many
        bursts as stacked array operations and then feeds each one through
        this shared entry point, which is what keeps the engines bit-identical.
        """
        if self.config.mode.uses_correlation:
            return self._decide_correlation(envelope, num_symbols)
        return self._decide_peak_position(envelope, num_symbols, thresholds=thresholds)

    def demodulate_payload(self, rf_payload: Signal, num_symbols: int, *,
                           random_state: RandomState = None,
                           thresholds: ThresholdPair | None = None) -> PayloadDemodulation:
        """Demodulate ``num_symbols`` chirps from an aligned RF payload waveform."""
        num_symbols = ensure_integer(num_symbols, "num_symbols", minimum=1)
        rng = as_rng(random_state)
        expected = num_symbols * self.samples_per_symbol
        if len(rf_payload) < expected:
            raise DemodulationError(
                f"payload waveform too short: need {expected} samples, got {len(rf_payload)}"
            )
        front: FrontEndOutput = self.frontend.process(rf_payload, random_state=rng)
        envelope = front.envelope
        symbols, decisions = self.decide_envelope(envelope, num_symbols,
                                                  thresholds=thresholds)
        bits = self._bits_from_symbols(symbols)
        return PayloadDemodulation(symbols=symbols, bits=bits, decisions=decisions,
                                   envelope=envelope)


class VanillaSaiyanDemodulator(_SaiyanDemodulatorBase):
    """The §2 pipeline: SAW + envelope detector + comparator + peak decoding.

    The supplied configuration's mode is forced to ``VANILLA``; the other
    fields are used unchanged.
    """

    def __init__(self, config: SaiyanConfig, **kwargs) -> None:
        super().__init__(config.with_(mode=SaiyanMode.VANILLA), **kwargs)


class SuperSaiyanDemodulator(_SaiyanDemodulatorBase):
    """The full §3 pipeline: cyclic-frequency shifting + correlation.

    The supplied configuration's mode is forced to ``SUPER`` unless the
    caller explicitly passes a config whose mode is ``FREQUENCY_SHIFT`` (the
    intermediate ablation point of Figure 25), in which case peak-position
    decoding is retained on the cleaned envelope.
    """

    def __init__(self, config: SaiyanConfig, **kwargs) -> None:
        if config.mode is SaiyanMode.VANILLA:
            config = config.with_(mode=SaiyanMode.SUPER)
        super().__init__(config, **kwargs)
