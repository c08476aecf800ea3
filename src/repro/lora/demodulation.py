"""Standard (commodity) LoRa demodulator.

This is the power-hungry reference receiver the paper contrasts Saiyan
against (§1): down-convert, sample at (at least) the chirp bandwidth,
dechirp by multiplying with the conjugate base up-chirp, and take an FFT —
the bin with the most energy is the transmitted symbol.  It demodulates
aligned payloads one chirp at a time, and is the serial oracle of the
waveform engine's stacked dechirp (the standard-LoRa arm of the ablation
sweeps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.chirp import lora_downchirp
from repro.dsp.signals import Signal
from repro.exceptions import DemodulationError
from repro.lora.packet import symbols_to_bits
from repro.lora.parameters import DownlinkParameters, LoRaParameters


@dataclass
class DemodulationResult:
    """Output of a payload demodulation.

    Attributes
    ----------
    symbols:
        Demodulated payload symbol values.
    bits:
        Bits corresponding to ``symbols``.
    symbol_magnitudes:
        Per-symbol winning FFT-bin magnitude (a confidence measure).
    """

    symbols: np.ndarray
    bits: np.ndarray
    symbol_magnitudes: np.ndarray


class LoRaDemodulator:
    """FFT-based coherent LoRa demodulator.

    Parameters
    ----------
    parameters:
        Air-interface configuration.  For :class:`DownlinkParameters`, the
        FFT result is quantised onto the reduced ``2**K`` alphabet.
    oversampling:
        Samples per chip of the waveform that will be supplied.  Must match
        the modulator that produced the waveform.
    """

    def __init__(self, parameters: LoRaParameters | DownlinkParameters, *,
                 oversampling: int = 4) -> None:
        if oversampling < 1:
            raise DemodulationError(f"oversampling must be >= 1, got {oversampling}")
        self.parameters = parameters
        self.oversampling = int(oversampling)
        self._base_downchirp = lora_downchirp(
            parameters.spreading_factor, parameters.bandwidth_hz, self.sample_rate
        )

    @property
    def sample_rate(self) -> float:
        """Expected input sample rate."""
        return self.parameters.bandwidth_hz * self.oversampling

    @property
    def samples_per_symbol(self) -> int:
        """Number of input samples per chirp."""
        return int(round(self.parameters.symbol_duration_s * self.sample_rate))

    @property
    def _alphabet_size(self) -> int:
        if isinstance(self.parameters, DownlinkParameters):
            return self.parameters.alphabet_size
        return self.parameters.chips_per_symbol

    # ------------------------------------------------------------------
    def _check_signal(self, signal: Signal) -> np.ndarray:
        if not np.isclose(signal.sample_rate, self.sample_rate, rtol=1e-6):
            raise DemodulationError(
                f"signal sample rate {signal.sample_rate} Hz does not match the "
                f"demodulator's expected rate {self.sample_rate} Hz"
            )
        return np.asarray(signal.samples)

    def demodulate_symbol(self, signal: Signal) -> tuple[int, float]:
        """Demodulate a single, already-aligned chirp.

        Returns ``(symbol, magnitude)`` where ``magnitude`` is the energy of
        the winning dechirped FFT bin.
        """
        samples = self._check_signal(signal)
        n = self.samples_per_symbol
        if samples.size < n:
            raise DemodulationError(
                f"need at least {n} samples for one symbol, got {samples.size}"
            )
        window = samples[:n]
        dechirped = window * np.asarray(self._base_downchirp.samples)[:n]
        spectrum = np.abs(np.fft.fft(dechirped))
        chips = self.parameters.chips_per_symbol if isinstance(
            self.parameters, LoRaParameters) else 2 ** self.parameters.spreading_factor
        # Dechirping symbol m produces a tone at m * BW / chips before the
        # frequency wrap and at m * BW / chips - BW after it.  With an FFT of
        # length chips * oversampling (bin width BW / chips) those land in
        # bins m and m + chips * (oversampling - 1); folding the two aliases
        # recovers the full symbol energy.
        folded = np.zeros(chips)
        for m in range(chips):
            bin_low = m % spectrum.size
            bin_high = (m + chips * (self.oversampling - 1)) % spectrum.size
            folded[m] = spectrum[bin_low] + spectrum[bin_high]
        raw_symbol = int(np.argmax(folded))
        magnitude = float(folded[raw_symbol])
        alphabet = self._alphabet_size
        if alphabet != chips:
            # Reduced downlink alphabet: snap to the nearest of the 2**K
            # evenly spaced offsets.
            step = chips / alphabet
            raw_symbol = int(np.round(raw_symbol / step)) % alphabet
        return raw_symbol, magnitude

    def demodulate_payload(self, signal: Signal, num_symbols: int) -> DemodulationResult:
        """Demodulate ``num_symbols`` consecutive chirps starting at sample 0."""
        samples = self._check_signal(signal)
        n = self.samples_per_symbol
        if samples.size < n * num_symbols:
            raise DemodulationError(
                f"need {n * num_symbols} samples for {num_symbols} symbols, "
                f"got {samples.size}"
            )
        symbols = np.empty(num_symbols, dtype=np.int64)
        magnitudes = np.empty(num_symbols, dtype=float)
        for i in range(num_symbols):
            chunk = Signal(samples[i * n: (i + 1) * n], self.sample_rate)
            symbols[i], magnitudes[i] = self.demodulate_symbol(chunk)
        bits_per_symbol = (self.parameters.bits_per_chirp
                           if isinstance(self.parameters, DownlinkParameters)
                           else self.parameters.spreading_factor)
        bits = symbols_to_bits(symbols, bits_per_symbol)
        return DemodulationResult(symbols=symbols, bits=bits,
                                  symbol_magnitudes=magnitudes)
