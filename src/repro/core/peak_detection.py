"""Peak-position decoding (§2.2, Figure 8).

After the SAW transformation, a downlink chirp's envelope peaks at the
moment its instantaneous frequency reaches the top of the band.  A chirp
whose starting offset is ``m * BW / 2**K`` (symbol ``m`` out of ``2**K``)
reaches the top after ``(1 - m / 2**K)`` of the symbol duration, so locating
the envelope peak inside a symbol window identifies the symbol.

The peak marker used by the hardware is the *falling edge* of the
double-threshold comparator's high pulse (the tail of the high-voltage run,
Figure 7e); when no pulse is present the decoder falls back to the largest
envelope sample, which is what the MCU would do with a raw counter of the
comparator output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SaiyanConfig
from repro.exceptions import ConfigurationError, DemodulationError
from repro.utils.validation import ensure_in_range, ensure_integer


def peak_position_to_symbol(peak_fraction: float, alphabet_size: int) -> int:
    """Map a peak position (fraction of the symbol window) to a symbol value.

    Symbol ``m`` peaks at fraction ``1 - m / alphabet_size`` of the window;
    the inverse mapping rounds to the nearest candidate and wraps so that a
    peak at the very start of the window (fraction ~0) maps to symbol 0's
    wrap-around position.

    Parameters
    ----------
    peak_fraction:
        Peak position within the symbol window, in ``[0, 1]``.
    alphabet_size:
        Number of candidate symbols (``2**K``).
    """
    ensure_in_range(peak_fraction, "peak_fraction", 0.0, 1.0)
    alphabet_size = ensure_integer(alphabet_size, "alphabet_size", minimum=2)
    m = int(np.round((1.0 - peak_fraction) * alphabet_size)) % alphabet_size
    return m


def symbol_to_peak_fraction(symbol: int, alphabet_size: int) -> float:
    """Return the expected peak position (fraction of the window) of ``symbol``."""
    alphabet_size = ensure_integer(alphabet_size, "alphabet_size", minimum=2)
    symbol = ensure_integer(symbol, "symbol", minimum=0, maximum=alphabet_size - 1)
    fraction = 1.0 - symbol / alphabet_size
    return fraction if fraction < 1.0 else 1.0


def symbol_windows(samples_per_symbol: float, num_symbols: int,
                   size: int) -> tuple[np.ndarray, np.ndarray]:
    """``(start, stop)`` sample bounds of each symbol window on a grid.

    Edges sit at ``round(i * samples_per_symbol)`` so timing does not drift
    across a long payload with a fractional number of samples per symbol;
    ``stop`` is clipped to the ``size``-sample grid, and a window shorter
    than two samples is widened to two where the grid allows.
    """
    edges = np.round(np.arange(num_symbols + 1) * samples_per_symbol).astype(np.int64)
    start, stop = edges[:-1], np.minimum(edges[1:], size)
    stop = np.where(stop - start < 2, np.minimum(start + 2, size), stop)
    return start, stop


@dataclass(frozen=True)
class PeakObservation:
    """Where the peak was found inside one symbol window."""

    sample_index: int
    fraction: float
    from_comparator: bool


class PeakPositionDecoder:
    """Decode symbols from comparator output (or raw envelopes) per window.

    Parameters
    ----------
    config:
        Saiyan configuration (supplies the alphabet size and symbol timing).
    """

    def __init__(self, config: SaiyanConfig) -> None:
        if not isinstance(config, SaiyanConfig):
            raise ConfigurationError(f"expected a SaiyanConfig, got {type(config).__name__}")
        self.config = config

    @property
    def alphabet_size(self) -> int:
        """Number of candidate downlink symbols."""
        return self.config.downlink.alphabet_size

    # ------------------------------------------------------------------
    def locate_peak(self, window_binary: np.ndarray,
                    window_envelope: np.ndarray | None = None) -> PeakObservation:
        """Find the peak marker inside one symbol window.

        Parameters
        ----------
        window_binary:
            Comparator output samples for the window.
        window_envelope:
            Optional raw envelope samples on the same grid, used as a
            fallback when the comparator produced no pulse (signal below
            ``UH`` for the whole window).
        """
        binary = np.asarray(window_binary).astype(np.int64)
        if binary.ndim != 1 or binary.size == 0:
            raise DemodulationError("symbol window must be a non-empty 1-D array")
        n = binary.size
        diff = np.diff(binary, prepend=binary[0])
        falling = np.where(diff == -1)[0]
        if falling.size > 0:
            # Tail of the last high run marks the amplitude peak (Figure 7e).
            index = int(falling[-1] - 1) if falling[-1] > 0 else 0
            return PeakObservation(sample_index=index, fraction=(index + 0.5) / n,
                                   from_comparator=True)
        if binary[-1] == 1 and np.any(binary == 1):
            # The high run extends to the end of the window: the peak is at
            # (or beyond) the window edge, which corresponds to symbol 0.
            index = n - 1
            return PeakObservation(sample_index=index, fraction=1.0, from_comparator=True)
        if window_envelope is not None:
            envelope = np.asarray(window_envelope, dtype=float)
            if envelope.size != n:
                raise DemodulationError(
                    "envelope window length must match the binary window length")
            index = int(np.argmax(envelope))
            return PeakObservation(sample_index=index, fraction=(index + 0.5) / n,
                                   from_comparator=False)
        # No pulse and no envelope: report mid-window with zero confidence.
        return PeakObservation(sample_index=n // 2, fraction=0.5, from_comparator=False)

    def decode_windows(self, binary: np.ndarray, envelope: np.ndarray,
                       start: np.ndarray, stop: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Decode every window of every row of a comparator-output stack.

        ``binary`` and ``envelope`` are ``(rows, samples)`` arrays on the
        same grid; window ``k`` of each row spans ``start[k]:stop[k]``.
        Returns ``(symbols, from_comparator)``, each ``(rows, windows)``;
        entry ``[r, k]`` is what :meth:`locate_peak` and
        :meth:`decode_symbol` give for that window, computed for all
        windows at once:

        * the last falling edge at or before ``j`` is a running maximum of
          the falling-edge indices, read at ``stop - 1``; it marks a pulse
          of this window when it lies after ``start``;
        * a window whose output is high at its end has fraction 1.0;
        * any other window falls back to its envelope ``argmax``, taken on
          a ``-inf``-padded ``(rows, windows, width)`` gather.
        """
        binary = np.asarray(binary, dtype=np.int64)
        envelope = np.asarray(envelope, dtype=float)
        size = binary.shape[1]
        falls = np.where(np.diff(binary, axis=1) == -1, np.arange(1, size), -1)
        last_fall = np.maximum.accumulate(
            np.concatenate([np.full((binary.shape[0], 1), -1), falls], axis=1), axis=1)
        last_fall = last_fall[:, stop - 1]
        pulse = last_fall > start
        high_to_end = ~pulse & (binary[:, stop - 1] == 1)
        length = stop - start
        offsets = np.arange(length.max())
        inside = offsets < length[:, None]
        padded = np.where(inside, envelope[:, np.minimum(start[:, None] + offsets, size - 1)],
                          -np.inf)
        index = np.where(pulse, last_fall - 1 - start, np.argmax(padded, axis=2))
        fraction = np.where(high_to_end, 1.0, (index + 0.5) / length)
        alphabet = self.alphabet_size
        symbols = np.round((1.0 - fraction) * alphabet).astype(np.int64) % alphabet
        return symbols, pulse | high_to_end

    def decode_symbol(self, window_binary: np.ndarray,
                      window_envelope: np.ndarray | None = None) -> int:
        """Return the symbol value decoded from one window."""
        observation = self.locate_peak(window_binary, window_envelope)
        return peak_position_to_symbol(min(observation.fraction, 1.0), self.alphabet_size)

    def decode_sequence(self, binary: np.ndarray, num_symbols: int, *,
                        envelope: np.ndarray | None = None) -> np.ndarray:
        """Decode ``num_symbols`` consecutive windows from a binary sequence.

        The sequence is split into equal windows; any trailing samples beyond
        ``num_symbols`` full windows are ignored.
        """
        binary = np.asarray(binary).astype(np.int64)
        num_symbols = ensure_integer(num_symbols, "num_symbols", minimum=1)
        if binary.size < num_symbols:
            raise DemodulationError(
                f"need at least {num_symbols} samples to decode {num_symbols} symbols, "
                f"got {binary.size}"
            )
        window = binary.size // num_symbols
        symbols = np.empty(num_symbols, dtype=np.int64)
        for i in range(num_symbols):
            win_bin = binary[i * window: (i + 1) * window]
            win_env = None
            if envelope is not None:
                envelope = np.asarray(envelope, dtype=float)
                win_env = envelope[i * window: (i + 1) * window]
            symbols[i] = self.decode_symbol(win_bin, win_env)
        return symbols
