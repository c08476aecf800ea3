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
from repro.core.peak_detection import PeakPositionDecoder, symbol_windows
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
    def _peak_position_stack(self, envelopes: np.ndarray, sample_rate: float,
                             num_symbols: int, *,
                             thresholds: ThresholdPair | None = None
                             ) -> tuple[np.ndarray, np.ndarray]:
        """Comparator + peak-position decisions for a ``(rows, samples)`` stack.

        Returns ``(symbols, from_comparator)``, each ``(rows, num_symbols)``.
        """
        grid, binary = self.quantizer.quantize_rows(envelopes, sample_rate,
                                                    thresholds=thresholds)
        # Symbol windows are laid out on the MCU sampling grid using the
        # exact (possibly fractional) number of samples per symbol so that
        # timing does not drift across a long payload.
        samples_per_symbol = (self.config.downlink.symbol_duration_s
                              * self.quantizer.sampler.sampling_rate_hz)
        if samples_per_symbol < 2:
            raise DemodulationError(
                "MCU sampling rate too low for peak-position decoding "
                f"({samples_per_symbol:.2f} samples per symbol)"
            )
        size = binary.shape[1]
        if size < int(round(samples_per_symbol * num_symbols)) - 1:
            raise DemodulationError(
                "binary sequence shorter than the requested number of symbols "
                f"({size} samples for {num_symbols} symbols)"
            )
        start, stop = symbol_windows(samples_per_symbol, num_symbols, size)
        return self.peak_decoder.decode_windows(binary, grid, start, stop)

    def _decide_peak_position(self, envelope: Signal, num_symbols: int, *,
                              thresholds: ThresholdPair | None = None
                              ) -> tuple[np.ndarray, list[SymbolDecision]]:
        """Comparator + peak-position decisions for every symbol window."""
        symbols, from_comparator = self._peak_position_stack(
            np.asarray(envelope.samples, dtype=float)[None], envelope.sample_rate,
            num_symbols, thresholds=thresholds)
        decisions = [SymbolDecision(symbol=int(s), confidence=1.0 if c else 0.5,
                                    used_correlation=False)
                     for s, c in zip(symbols[0], from_comparator[0])]
        return symbols[0], decisions

    def _decide_correlation(self, envelope: Signal, num_symbols: int
                            ) -> tuple[np.ndarray, list[SymbolDecision]]:
        """Correlation decisions for every symbol window."""
        symbols, correlations = self.correlator.demodulate(envelope, num_symbols)
        decisions = [SymbolDecision(symbol=int(s), confidence=float(c), used_correlation=True)
                     for s, c in zip(symbols, correlations)]
        return symbols, decisions

    # ------------------------------------------------------------------
    def decide_stack(self, envelopes: np.ndarray, sample_rate: float,
                     num_symbols: int) -> np.ndarray:
        """Decide every symbol window of a ``(rows, samples)`` envelope stack.

        Row ``i`` of the returned ``(rows, num_symbols)`` symbol array equals
        the symbols :meth:`decide_envelope` gives for
        ``Signal(envelopes[i], sample_rate)``: both run the same array
        decision stage, the scalar entry point with one row.  The vectorized
        burst kernel (:mod:`repro.sim.waveform_engine`) decides all its
        bursts of one length with one call here.
        """
        envelopes = np.asarray(envelopes, dtype=float)
        if self.config.mode.uses_correlation:
            return self.correlator.demodulate_stack(envelopes, num_symbols)[0]
        return self._peak_position_stack(envelopes, sample_rate, num_symbols)[0]

    def decide_envelope(self, envelope: Signal, num_symbols: int, *,
                        thresholds: ThresholdPair | None = None
                        ) -> tuple[np.ndarray, list[SymbolDecision]]:
        """Run the decision stage only: front-end envelope -> symbols.

        This is the exact decision code :meth:`demodulate_payload` uses after
        the analog front end.  It decides the envelope as a one-row stack of
        the array code behind :meth:`decide_stack`, which is what keeps the
        serial reference and the vectorized burst kernel bit-identical.
        """
        if not isinstance(envelope, Signal):
            raise ConfigurationError(f"expected a Signal, got {type(envelope).__name__}")
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
