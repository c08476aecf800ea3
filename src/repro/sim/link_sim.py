"""Link-level models: RSS -> detection, BER, throughput and range.

The waveform pipeline in :mod:`repro.core` is the mechanism model; running
it for the millions of packets behind every figure would take hours, exactly
like re-running the authors' field studies.  The classes here are the
*calibrated link abstraction* used to regenerate the evaluation figures:

* :class:`SaiyanLinkModel` — maps downlink RSS to detection probability and
  BER for a given Saiyan mode, spreading factor, bandwidth and bits-per-chirp
  setting.  Its anchor points are the paper's measured numbers (sensitivity
  -85.8 dBm, 1e-3-BER range ~148 m, BER-vs-CR spread 2.4-5.2x, range-vs-BW
  spread ~1.9x) and the structure of the front end (SAW amplitude gap per
  bandwidth, per-stage SNR gains); between anchors the behaviour follows a
  smooth log-linear law.  DESIGN.md and EXPERIMENTS.md document the
  calibration.
* :class:`BaselineLinkModel` — detection-only models of PLoRa, Aloba and the
  conventional envelope receiver.
* :class:`BackscatterUplinkModel` — the two-hop uplink BER of a backscatter
  tag received by a commodity LoRa access point (Figure 2 and the §5.3 case
  studies).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.aloba import AlobaDetector
from repro.baselines.envelope_receiver import ConventionalEnvelopeReceiver
from repro.baselines.plora import PLoRaDetector
from repro.baselines.standard_lora import StandardLoRaReceiver
from repro.channel.backscatter_link import BackscatterLink
from repro.channel.link_budget import LinkBudget
from repro.constants import BER_RANGE_THRESHOLD
from repro.core.config import SaiyanConfig, SaiyanMode
from repro.core.receiver import SaiyanReceiver
from repro.exceptions import ConfigurationError, LinkError
from repro.hardware.saw_filter import SAWFilter
from repro.sim.metrics import throughput_bps
from repro.utils import arrays
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import ensure_integer, ensure_positive

#: dB of extra RSS needed per decade of BER improvement.  Calibrated from the
#: paper's Figure 16/22 curves, whose BER spans roughly 1.5 decades over a
#: ~45 dB RSS span (slow, fading/interference-limited roll-off).
BER_SLOPE_DB_PER_DECADE: float = 30.0

#: Sensitivity penalty per additional bit packed into a chirp.  Each extra
#: bit doubles the number of peak positions to resolve; calibrated so the
#: Figure 25 range spread across K=1..5 (~1.9x) and the Figure 16 BER spread
#: (2.4-5.2x) are reproduced.
BITS_PER_CHIRP_PENALTY_DB: float = 3.0

#: Sensitivity improvement per spreading-factor step above SF7 (longer
#: symbols integrate more energy; calibrated to the 1.1-1.3x range growth of
#: Figure 17).
SPREADING_FACTOR_GAIN_DB: float = 0.6

#: Fraction of the SAW amplitude-gap reduction (relative to 500 kHz) that
#: translates into lost sensitivity.  Calibrated so the 125 kHz -> 500 kHz
#: range growth of Figure 18 (~1.9x) is reproduced.
SAW_GAP_SENSITIVITY_FACTOR: float = 0.61

#: Bits-per-chirp value at which the published sensitivity figures were
#: measured (the paper's default downlink setting).
REFERENCE_BITS_PER_CHIRP: int = 2

#: Reference spreading factor and bandwidth of the published sensitivities.
REFERENCE_SPREADING_FACTOR: int = 7
REFERENCE_BANDWIDTH_HZ: float = 500e3

#: Width (dB) of the logistic detection roll-off around the sensitivity.
DETECTION_ROLLOFF_DB: float = 1.5

#: BER at the demodulation sensitivity, by definition of the range metric.
BER_AT_SENSITIVITY: float = BER_RANGE_THRESHOLD


def ber_from_margin(margin_db):
    """Log-linear BER at ``margin_db`` above the demodulation sensitivity.

    The calibrated 30 dB-per-decade curve, clipped to [1e-7, 0.5].  The single
    formula behind every BER in the library: the scalar model methods and the
    vectorized range searches (:func:`repro.sim.batch.demodulation_ranges`)
    share it so the two paths cannot drift apart.
    """
    log_ber = (np.log10(BER_AT_SENSITIVITY)
               - np.asarray(margin_db, dtype=float) / BER_SLOPE_DB_PER_DECADE)
    return np.clip(10.0 ** log_ber, 1e-7, 0.5)


def detection_probability_from_margin(margin_db):
    """Logistic detection probability at ``margin_db`` above the sensitivity.

    Shared by the scalar model methods and the vectorized range searches
    (:func:`repro.sim.batch.detection_ranges`), like :func:`ber_from_margin`.
    """
    margin = np.asarray(margin_db, dtype=float)
    return 1.0 / (1.0 + np.exp(-margin / (DETECTION_ROLLOFF_DB / 4.0)))


@dataclass
class SaiyanLinkModel:
    """Calibrated RSS -> performance model of a Saiyan downlink receiver.

    Parameters
    ----------
    config:
        Saiyan configuration (mode, spreading factor, bandwidth, bits per
        chirp).
    link:
        Link budget of the transmitter-to-tag path.
    saw_filter:
        SAW filter model used to derive the bandwidth-dependent sensitivity
        adjustment (via its amplitude gap).
    """

    config: SaiyanConfig
    link: LinkBudget
    saw_filter: SAWFilter = field(default_factory=SAWFilter)

    def __post_init__(self) -> None:
        if not isinstance(self.config, SaiyanConfig):
            raise ConfigurationError(
                f"config must be a SaiyanConfig, got {type(self.config).__name__}")
        if not isinstance(self.link, LinkBudget):
            raise ConfigurationError(
                f"link must be a LinkBudget, got {type(self.link).__name__}")

    # ------------------------------------------------------------------
    # Sensitivity model
    # ------------------------------------------------------------------
    def _bandwidth_penalty_db(self) -> float:
        """Sensitivity loss from a narrower chirp (smaller SAW amplitude gap)."""
        reference_gap = self.saw_filter.amplitude_gap_db(REFERENCE_BANDWIDTH_HZ)
        gap = self.saw_filter.amplitude_gap_db(self.config.downlink.bandwidth_hz)
        return max(reference_gap - gap, 0.0) * SAW_GAP_SENSITIVITY_FACTOR

    def _spreading_factor_bonus_db(self) -> float:
        """Sensitivity gain from spreading factors above the SF7 reference."""
        return (self.config.downlink.spreading_factor
                - REFERENCE_SPREADING_FACTOR) * SPREADING_FACTOR_GAIN_DB

    def _temperature_penalty_db(self) -> float:
        """Sensitivity loss from temperature drift of the SAW response.

        Temperature slides the SAW critical band, reducing the gain at the
        top of the chirp band relative to the nominal-temperature response
        (Figure 24).
        """
        bandwidth = self.config.downlink.bandwidth_hz
        nominal = self.saw_filter.with_temperature(self.saw_filter.nominal_temperature_c)
        nominal_top = float(np.asarray(nominal.gain_db(bandwidth)))
        current_top = float(np.asarray(self.saw_filter.gain_db(bandwidth)))
        return max(nominal_top - current_top, 0.0)

    def _bits_penalty_db(self, bits_per_chirp=None):
        """Sensitivity loss from packing more bits per chirp.

        ``bits_per_chirp`` may be a scalar or an array of coding rates, in
        which case an array of penalties is returned (used to broadcast the
        figure sweeps over config grids).
        """
        bits = self.config.downlink.bits_per_chirp if bits_per_chirp is None else bits_per_chirp
        return (np.asarray(bits, dtype=float) - REFERENCE_BITS_PER_CHIRP) \
            * BITS_PER_CHIRP_PENALTY_DB

    def demodulation_sensitivity_dbm(self, *, bits_per_chirp=None):
        """RSS at which the BER equals 1e-3 for this configuration.

        Returns a float for a scalar (or default) ``bits_per_chirp`` and an
        array when an array of coding rates is supplied.
        """
        base = SaiyanReceiver.demodulation_sensitivity_dbm(self.config.mode)
        sensitivity = (base
                       + self._bits_penalty_db(bits_per_chirp)
                       + self._bandwidth_penalty_db()
                       + self._temperature_penalty_db()
                       - self._spreading_factor_bonus_db())
        if bits_per_chirp is None:
            return float(sensitivity)
        return arrays.match_scalar(sensitivity, bits_per_chirp)

    @property
    def detection_sensitivity_dbm(self) -> float:
        """RSS at which packet detection still succeeds (50 % point)."""
        base = SaiyanReceiver.detection_sensitivity_dbm(self.config.mode)
        return (base + self._bandwidth_penalty_db() + self._temperature_penalty_db()
                - self._spreading_factor_bonus_db())

    # ------------------------------------------------------------------
    # RSS-domain performance
    # ------------------------------------------------------------------
    def detection_probability(self, rss_dbm):
        """Probability of detecting a packet at ``rss_dbm`` (logistic roll-off).

        ``rss_dbm`` may be a scalar (float out) or an array (array out).
        """
        margin = arrays.as_float_array(rss_dbm) - self.detection_sensitivity_dbm
        return arrays.match_scalar(detection_probability_from_margin(margin), rss_dbm)

    def bit_error_rate(self, rss_dbm, *, bits_per_chirp=None):
        """BER at ``rss_dbm`` for this configuration.

        Log-linear in the RSS margin over the demodulation sensitivity, with
        the calibrated 30 dB-per-decade slope; clipped to [1e-7, 0.5].  Both
        ``rss_dbm`` and ``bits_per_chirp`` may be scalars or broadcast-
        compatible arrays, enabling whole figure sweeps in one call.
        """
        sensitivity = self.demodulation_sensitivity_dbm(bits_per_chirp=bits_per_chirp)
        ber = ber_from_margin(arrays.as_float_array(rss_dbm) - sensitivity)
        if bits_per_chirp is None:
            return arrays.match_scalar(ber, rss_dbm)
        return arrays.match_scalar(ber, rss_dbm, bits_per_chirp)

    def data_rate_bps(self, *, bits_per_chirp=None):
        """Raw downlink data rate ``K * BW / 2**SF`` (scalar or array in ``K``)."""
        bits = self.config.downlink.bits_per_chirp if bits_per_chirp is None else bits_per_chirp
        rate = np.asarray(bits, dtype=float) * self.config.downlink.bandwidth_hz / (
            2 ** self.config.downlink.spreading_factor)
        if bits_per_chirp is None:
            return float(rate)
        return arrays.match_scalar(rate, bits_per_chirp)

    def throughput_bps(self, rss_dbm, *, bits_per_chirp=None):
        """Goodput at ``rss_dbm``: data rate discounted by BER and detection."""
        ber = self.bit_error_rate(rss_dbm, bits_per_chirp=bits_per_chirp)
        detection = self.detection_probability(rss_dbm)
        return throughput_bps(self.data_rate_bps(bits_per_chirp=bits_per_chirp), ber,
                              detection_probability=detection)

    # ------------------------------------------------------------------
    # Distance-domain performance
    # ------------------------------------------------------------------
    def rss_at(self, distance_m, *, random_state: RandomState = None,
               include_fading: bool = False):
        """RSS at ``distance_m`` (scalar or array) over the configured link."""
        return self.link.rss_dbm(distance_m, random_state=random_state,
                                 include_fading=include_fading)

    def ber_at_distance(self, distance_m, *, bits_per_chirp=None):
        """Mean-RSS BER at ``distance_m`` (scalar or array)."""
        return self.bit_error_rate(self.rss_at(distance_m), bits_per_chirp=bits_per_chirp)

    def throughput_at_distance(self, distance_m, *, bits_per_chirp=None):
        """Mean-RSS goodput at ``distance_m`` (scalar or array)."""
        return self.throughput_bps(self.rss_at(distance_m), bits_per_chirp=bits_per_chirp)

    def demodulation_range_m(self, *, ber_threshold: float = BER_RANGE_THRESHOLD,
                             bits_per_chirp: int | None = None,
                             max_distance_m: float = 2000.0) -> float:
        """Maximum distance at which the BER stays below ``ber_threshold``."""
        ensure_positive(max_distance_m, "max_distance_m")
        if self.ber_at_distance(0.5, bits_per_chirp=bits_per_chirp) > ber_threshold:
            return 0.0
        low, high = 0.5, max_distance_m
        if self.ber_at_distance(high, bits_per_chirp=bits_per_chirp) <= ber_threshold:
            return float(high)
        for _ in range(64):
            mid = (low + high) / 2.0
            if self.ber_at_distance(mid, bits_per_chirp=bits_per_chirp) <= ber_threshold:
                low = mid
            else:
                high = mid
        return float(low)

    def detection_range_m(self, *, probability: float = 0.5,
                          max_distance_m: float = 2000.0) -> float:
        """Maximum distance at which packets are still detected with ``probability``."""
        if not 0.0 < probability < 1.0:
            raise LinkError(f"probability must be in (0, 1), got {probability}")
        if self.detection_probability(self.rss_at(0.5)) < probability:
            return 0.0
        low, high = 0.5, max_distance_m
        if self.detection_probability(self.rss_at(high)) >= probability:
            return float(high)
        for _ in range(64):
            mid = (low + high) / 2.0
            if self.detection_probability(self.rss_at(mid)) >= probability:
                low = mid
            else:
                high = mid
        return float(low)

    def with_mode(self, mode: SaiyanMode) -> "SaiyanLinkModel":
        """Return a copy of this model with a different Saiyan mode."""
        return SaiyanLinkModel(config=self.config.with_(mode=mode), link=self.link,
                               saw_filter=self.saw_filter)


@dataclass
class BaselineLinkModel:
    """Detection-range model of the baseline tag-side receivers.

    Parameters
    ----------
    name:
        One of ``"plora"``, ``"aloba"`` or ``"envelope"``.
    link:
        Link budget of the transmitter-to-tag path.
    """

    name: str
    link: LinkBudget

    _SENSITIVITIES = {
        "plora": PLoRaDetector.detection_sensitivity_dbm,
        "aloba": AlobaDetector.detection_sensitivity_dbm,
        "envelope": ConventionalEnvelopeReceiver.detection_sensitivity_dbm,
    }

    def __post_init__(self) -> None:
        if self.name not in self._SENSITIVITIES:
            raise ConfigurationError(
                f"unknown baseline {self.name!r}; expected one of "
                f"{sorted(self._SENSITIVITIES)}")

    @property
    def detection_sensitivity_dbm(self) -> float:
        """Detection sensitivity of this baseline."""
        return self._SENSITIVITIES[self.name]

    def detection_probability(self, rss_dbm):
        """Logistic detection probability around the baseline's sensitivity.

        ``rss_dbm`` may be a scalar (float out) or an array (array out).
        """
        margin = arrays.as_float_array(rss_dbm) - self.detection_sensitivity_dbm
        return arrays.match_scalar(detection_probability_from_margin(margin), rss_dbm)

    def detection_range_m(self, *, probability: float = 0.5,
                          max_distance_m: float = 2000.0) -> float:
        """Maximum distance at which the baseline still detects packets."""
        if not 0.0 < probability < 1.0:
            raise LinkError(f"probability must be in (0, 1), got {probability}")
        low, high = 0.5, max_distance_m
        if self.detection_probability(self.link.rss_dbm(low)) < probability:
            return 0.0
        if self.detection_probability(self.link.rss_dbm(high)) >= probability:
            return float(high)
        for _ in range(64):
            mid = (low + high) / 2.0
            if self.detection_probability(self.link.rss_dbm(mid)) >= probability:
                low = mid
            else:
                high = mid
        return float(low)


@dataclass
class BackscatterUplinkModel:
    """Two-hop backscatter uplink decoded by a commodity LoRa access point.

    Used for Figure 2 (BER of PLoRa and Aloba against the tag-to-transmitter
    distance) and for the uplink success probabilities of the §5.3 case
    studies.

    Parameters
    ----------
    uplink:
        The backscatter link geometry/propagation.
    spreading_factor:
        Spreading factor of the backscattered LoRa packets.
    bandwidth_hz:
        Bandwidth of the backscattered packets.
    modulation_penalty_db:
        Extra SNR the backscatter modulation needs relative to clean LoRa
        (imperfect reflection waveforms); PLoRa-class tags lose a few dB.
    """

    uplink: BackscatterLink
    spreading_factor: int = 7
    bandwidth_hz: float = 500e3
    modulation_penalty_db: float = 3.0

    def snr_db(self, tx_to_tag_m, tag_to_rx_m, *,
               random_state: RandomState = None, include_fading: bool = False):
        """Uplink SNR at the access point for the given geometry.

        Both distances may be scalars or broadcast-compatible arrays; array
        inputs draw one fading realisation per element of the broadcast
        shape and return an array of SNRs.
        """
        # received_power_dbm already dispatches float-for-scalar/array-for-array.
        rss = self.uplink.received_power_dbm(tx_to_tag_m, tag_to_rx_m,
                                             random_state=random_state,
                                             include_fading=include_fading)
        noise = self.uplink.backward.noise_dbm(self.bandwidth_hz)
        return rss - noise - self.modulation_penalty_db

    def symbol_error_probability(self, tx_to_tag_m, tag_to_rx_m, **kwargs):
        """Uplink symbol error probability at the access point."""
        snr = self.snr_db(tx_to_tag_m, tag_to_rx_m, **kwargs)
        return StandardLoRaReceiver.symbol_error_probability(snr, self.spreading_factor)

    def bit_error_rate(self, tx_to_tag_m, tag_to_rx_m, **kwargs):
        """Uplink BER at the access point (orthogonal-modulation bit mapping)."""
        p_sym = self.symbol_error_probability(tx_to_tag_m, tag_to_rx_m, **kwargs)
        chips = 2 ** self.spreading_factor
        ber = np.clip(np.asarray(p_sym) * (chips / 2) / (chips - 1), 0.0, 0.5)
        return arrays.match_scalar(ber, tx_to_tag_m, tag_to_rx_m)

    def packet_success_probability(self, tx_to_tag_m: float, tag_to_rx_m: float, *,
                                   payload_bits: int = 64,
                                   num_fading_draws: int = 200,
                                   random_state: RandomState = None) -> float:
        """Probability that a whole uplink packet arrives error-free.

        Averages over small-scale fading realisations, which is what turns
        the steep AWGN BER curve into the gradual packet-loss behaviour the
        §5.3 retransmission study (Figure 26) builds on.  The fading draws
        are evaluated as one broadcast batch.
        """
        payload_bits = ensure_integer(payload_bits, "payload_bits", minimum=1)
        num_fading_draws = ensure_integer(num_fading_draws, "num_fading_draws", minimum=1)
        rng = as_rng(random_state)
        bers = self.bit_error_rate(np.full(num_fading_draws, float(tx_to_tag_m)),
                                   np.full(num_fading_draws, float(tag_to_rx_m)),
                                   random_state=rng, include_fading=True)
        return float(np.mean((1.0 - bers) ** payload_bits))
