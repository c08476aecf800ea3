"""Correlation demodulator (Super Saiyan, §3.2).

When the incident signal is close to the noise floor the comparator may not
fire at all, or may fire on noise.  Correlating the received envelope with
locally stored envelope templates — one per candidate downlink symbol —
integrates energy over the whole symbol instead of relying on a single peak
sample, buying the extra sensitivity that extends the demodulation range to
~148 m.

Templates are generated once from the noise-free front-end response to each
candidate chirp, so the correlator automatically accounts for the SAW
filter's amplitude shaping.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SaiyanConfig
from repro.core.frontend import AnalogFrontEnd
from repro.dsp.signals import Signal
from repro.exceptions import ConfigurationError, DemodulationError
from repro.lora.modulation import LoRaModulator
from repro.utils.plans import PlanCache, freeze_array

#: Memoized template banks keyed by the full (hashable) SaiyanConfig.  The
#: bank is a pure function of the config whenever the analog chain is the
#: config-default one (``AnalogFrontEnd.is_config_default_analog``) — the
#: only case that consults this cache.  Banks are stored read-only; for a
#: K=5 downlink a bank is 32 templates, so rebuilding it per demodulator is
#: the single largest fixed cost of a waveform sweep.
TEMPLATE_BANK_CACHE = PlanCache("template-banks", maxsize=32)


class CorrelationDemodulator:
    """Template-correlation symbol decisions on the envelope waveform.

    Parameters
    ----------
    config:
        Saiyan configuration.
    frontend:
        The analog front end used to generate noise-free templates; if
        omitted a dedicated noiseless instance is created.
    """

    def __init__(self, config: SaiyanConfig, *, frontend: AnalogFrontEnd | None = None) -> None:
        if not isinstance(config, SaiyanConfig):
            raise ConfigurationError(f"expected a SaiyanConfig, got {type(config).__name__}")
        self.config = config
        self._frontend = frontend if frontend is not None else AnalogFrontEnd(config)
        self._modulator = LoRaModulator(config.downlink, oversampling=config.oversampling)
        if getattr(self._frontend, "is_config_default_analog", False):
            self._templates = TEMPLATE_BANK_CACHE.get(
                config, lambda: freeze_array(self._build_templates()))
        else:
            # A custom SAW/LNA changes the envelope shaping; the bank is no
            # longer a function of the config alone, so build it privately.
            self._templates = self._build_templates()

    # ------------------------------------------------------------------
    def _build_templates(self) -> np.ndarray:
        """Return an array of zero-mean, unit-norm envelope templates."""
        alphabet = self.config.downlink.alphabet_size
        templates = []
        for symbol in range(alphabet):
            waveform = self._modulator.symbol_waveform(symbol)
            envelope = self._frontend.envelope_template(waveform)
            samples = np.asarray(envelope.samples, dtype=float)
            samples = samples - np.mean(samples)
            norm = np.linalg.norm(samples)
            if norm <= 0:
                raise DemodulationError(
                    f"template for symbol {symbol} has zero energy; the SAW "
                    "response is not discriminating the chirp"
                )
            templates.append(samples / norm)
        return np.vstack(templates)

    @property
    def templates(self) -> np.ndarray:
        """The (alphabet_size, samples_per_symbol) template matrix."""
        return self._templates

    @property
    def samples_per_symbol(self) -> int:
        """Template length in samples."""
        return self._templates.shape[1]

    # ------------------------------------------------------------------
    def _score_centered(self, centered: np.ndarray) -> np.ndarray:
        """Template scores of one already zero-mean window.

        The scalar definition of the scoring (and of the zero-energy
        convention: no energy -> all-zero scores, i.e. symbol 0 with
        correlation 0); :meth:`score_windows` equals it row by row, bit for
        bit.
        """
        norm = np.linalg.norm(centered)
        if norm <= 0:
            return np.zeros(self._templates.shape[0])
        return self._templates @ (centered / norm)

    def score_windows(self, centered: np.ndarray) -> np.ndarray:
        """Template scores of a ``(windows, samples)`` stack of zero-mean windows.

        A batch of matrix-vector products: per window, the norm is one
        ``dot`` and the scores one ``gemv``, the same BLAS calls (and so the
        same bits) as :meth:`_score_centered` makes for that window.  A
        single GEMM over all windows would round differently.
        """
        norms = np.sqrt(centered[:, None, :] @ centered[:, :, None])[:, :, 0]
        silent = norms <= 0
        scaled = centered / np.where(silent, 1.0, norms)
        scores = (self._templates[None] @ scaled[:, :, None])[:, :, 0]
        return np.where(silent, 0.0, scores)

    def correlate_window(self, window: np.ndarray) -> np.ndarray:
        """Return the normalised correlation of one envelope window with each template."""
        window = np.asarray(window, dtype=float).ravel()
        n = self.samples_per_symbol
        if window.size < n:
            window = np.concatenate([window, np.zeros(n - window.size)])
        window = window[:n]
        return self._score_centered(window - np.mean(window))

    def decide_symbol(self, window: np.ndarray) -> tuple[int, float]:
        """Return ``(symbol, correlation)`` for one envelope window."""
        scores = self.correlate_window(window)
        symbol = int(np.argmax(scores))
        return symbol, float(scores[symbol])

    def demodulate(self, envelope: Signal, num_symbols: int) -> tuple[np.ndarray, np.ndarray]:
        """Demodulate ``num_symbols`` consecutive windows of an envelope signal.

        Returns ``(symbols, correlations)``.
        """
        if not isinstance(envelope, Signal):
            raise ConfigurationError(f"expected a Signal, got {type(envelope).__name__}")
        if num_symbols < 1:
            raise DemodulationError(f"num_symbols must be >= 1, got {num_symbols}")
        symbols, correlations = self.demodulate_stack(
            np.asarray(envelope.samples, dtype=float)[None], num_symbols)
        return symbols[0], correlations[0]

    def demodulate_stack(self, envelopes: np.ndarray,
                         num_symbols: int) -> tuple[np.ndarray, np.ndarray]:
        """Demodulate ``num_symbols`` windows of every row of an envelope stack.

        Returns ``(symbols, correlations)``, each ``(rows, num_symbols)``.
        Row-mean centring and :meth:`score_windows` both work per window,
        so row ``i`` equals :meth:`demodulate` of ``envelopes[i]``.
        """
        envelopes = np.asarray(envelopes, dtype=float)
        n = self.samples_per_symbol
        if envelopes.shape[1] < n * num_symbols:
            raise DemodulationError(
                f"need {n * num_symbols} envelope samples for {num_symbols} symbols, "
                f"got {envelopes.shape[1]}"
            )
        shape = (envelopes.shape[0], num_symbols)
        block = envelopes[:, : n * num_symbols].reshape(*shape, n)
        centered = block - np.mean(block, axis=2, keepdims=True)
        scores = self.score_windows(centered.reshape(-1, n))
        symbols = np.argmax(scores, axis=1)
        correlations = scores[np.arange(symbols.size), symbols]
        return symbols.reshape(shape), correlations.reshape(shape)

    # ------------------------------------------------------------------
    def detect_packet(self, envelope: Signal, *, threshold: float | None = None,
                      num_preamble_symbols: int = 2) -> int | None:
        """Search for a preamble by correlating against the up-chirp template.

        Returns the sample index where the preamble starts, or ``None`` when
        no window exceeds the correlation ``threshold`` for
        ``num_preamble_symbols`` consecutive symbols.
        """
        if threshold is None:
            threshold = self.config.correlation_threshold
        samples = np.asarray(envelope.samples, dtype=float)
        n = self.samples_per_symbol
        if samples.size < n * num_preamble_symbols:
            return None
        upchirp_template = self._templates[0]
        step = max(n // 8, 1)
        for start in range(0, samples.size - n * num_preamble_symbols + 1, step):
            all_match = True
            for k in range(num_preamble_symbols):
                window = samples[start + k * n: start + (k + 1) * n]
                window = window - np.mean(window)
                norm = np.linalg.norm(window)
                score = 0.0 if norm <= 0 else float(upchirp_template @ (window / norm))
                if score < threshold:
                    all_match = False
                    break
            if all_match:
                return start
        return None
