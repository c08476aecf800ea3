"""Link-budget arithmetic: transmit power + geometry -> RSS, SNR, waveform scaling.

The :class:`LinkBudget` couples a path-loss model, wall attenuation, fading
and antenna gains into a single object that can answer the questions the
experiments need:

* What is the received signal strength at distance ``d``? (Figure 22)
* What SNR does the demodulator see in a given bandwidth?
* Scale a transmitted waveform so that ``|x|^2`` equals the received power
  in watts and add the corresponding thermal noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.channel.fading import FadingModel, NoFading
from repro.channel.path_loss import LogDistancePathLoss, PathLossModel
from repro.channel.walls import WallAttenuation
from repro.constants import (
    DEFAULT_ANTENNA_GAIN_DBI,
    DEFAULT_TX_POWER_DBM,
    LORA_CARRIER_HZ,
)
from repro.dsp.noise import add_awgn, noise_power_dbm
from repro.dsp.signals import Signal
from repro.exceptions import LinkError
from repro.utils import arrays
from repro.utils.rng import RandomState, as_rng
from repro.utils.units import dbm_to_watts
from repro.utils.validation import ensure_non_negative, ensure_positive


@dataclass(frozen=True)
class LinkResult:
    """Outcome of evaluating a link budget at one distance.

    Attributes
    ----------
    distance_m:
        Transmitter-to-receiver distance.
    rss_dbm:
        Received signal strength.
    noise_dbm:
        Thermal noise power in the receiver bandwidth (including its noise
        figure).
    snr_db:
        ``rss_dbm - noise_dbm``.
    path_loss_db:
        Total attenuation (path loss + walls - antenna gains) applied.
    """

    distance_m: float
    rss_dbm: float
    noise_dbm: float
    snr_db: float
    path_loss_db: float


@dataclass(frozen=True)
class LinkBudget:
    """A directional radio link from a transmitter to a receiver.

    Parameters
    ----------
    tx_power_dbm:
        Transmit power (20 dBm in the paper's setup).
    tx_antenna_gain_dbi, rx_antenna_gain_dbi:
        Antenna gains (3 dBi omnis in the paper).
    frequency_hz:
        Carrier frequency.
    path_loss:
        Large-scale propagation model.
    walls:
        Wall attenuation between the endpoints.
    fading:
        Small-scale fading model (defaults to none for mean-value analyses).
    noise_figure_db:
        Receiver noise figure added to the thermal floor.
    """

    tx_power_dbm: float = DEFAULT_TX_POWER_DBM
    tx_antenna_gain_dbi: float = DEFAULT_ANTENNA_GAIN_DBI
    rx_antenna_gain_dbi: float = DEFAULT_ANTENNA_GAIN_DBI
    frequency_hz: float = LORA_CARRIER_HZ
    path_loss: PathLossModel = field(default_factory=LogDistancePathLoss)
    walls: WallAttenuation = field(default_factory=WallAttenuation)
    fading: FadingModel = field(default_factory=NoFading)
    noise_figure_db: float = 6.0

    def __post_init__(self) -> None:
        if self.tx_power_dbm > 40.0:
            raise LinkError(
                f"tx_power_dbm {self.tx_power_dbm} exceeds any plausible ISM-band limit"
            )
        ensure_positive(self.frequency_hz, "frequency_hz")
        ensure_non_negative(self.noise_figure_db, "noise_figure_db")

    # ------------------------------------------------------------------
    def total_loss_db(self, distance_m, *, random_state: RandomState = None,
                      include_fading: bool = False):
        """Return the end-to-end attenuation (dB) at ``distance_m``.

        Antenna gains reduce the loss; walls and path loss increase it.  With
        ``include_fading=True`` one fading realisation is drawn and applied
        per distance.  ``distance_m`` may be a scalar (float out, historical
        behaviour) or an array (one loss realisation per element).
        """
        distances = arrays.as_float_array(distance_m)
        if np.any(distances <= 0):
            raise LinkError(f"distance_m must be positive, got {distance_m}")
        rng = as_rng(random_state)
        size = None if np.ndim(distance_m) == 0 else np.shape(distance_m)
        loss = (self._deterministic_loss_db(distance_m)
                + self.path_loss.sample_shadowing_db(size=size, random_state=rng))
        if include_fading:
            loss = loss - self.fading.sample_gain_db(size=size, random_state=rng)
        return arrays.match_scalar(loss, distance_m)

    def rss_dbm(self, distance_m, *, random_state: RandomState = None,
                include_fading: bool = False):
        """Return the received signal strength (dBm) at ``distance_m``."""
        # total_loss_db already dispatches float-for-scalar/array-for-array.
        return self.tx_power_dbm - self.total_loss_db(
            distance_m, random_state=random_state, include_fading=include_fading)

    def _deterministic_loss_db(self, distance_m):
        """Mean path loss plus walls minus antenna gains (no randomness).

        The deterministic part of :meth:`total_loss_db`; it consumes no
        randomness, so the shadowing and fading draws that follow it see the
        caller's random stream untouched.
        """
        loss = self.path_loss.mean_loss_db(distance_m, self.frequency_hz)
        loss = loss + self.walls.total_loss_db
        return loss - (self.tx_antenna_gain_dbi + self.rx_antenna_gain_dbi)

    @property
    def shadowing_sigma_db(self) -> float:
        """Shadowing standard deviation of the underlying path-loss model."""
        return float(self.path_loss.shadowing_sigma_db)

    def noise_dbm(self, bandwidth_hz: float) -> float:
        """Return the receiver noise power (dBm) in ``bandwidth_hz``."""
        return float(noise_power_dbm(bandwidth_hz, self.noise_figure_db))

    def snr_db(self, distance_m, bandwidth_hz: float, *,
               random_state: RandomState = None, include_fading: bool = False):
        """Return the SNR (dB) at ``distance_m`` in ``bandwidth_hz``."""
        return (self.rss_dbm(distance_m, random_state=random_state,
                             include_fading=include_fading)
                - self.noise_dbm(bandwidth_hz))

    def evaluate(self, distance_m: float, bandwidth_hz: float, *,
                 random_state: RandomState = None,
                 include_fading: bool = False) -> LinkResult:
        """Evaluate the full budget at one distance and return a :class:`LinkResult`."""
        loss = self.total_loss_db(distance_m, random_state=random_state,
                                  include_fading=include_fading)
        rss = self.tx_power_dbm - loss
        noise = self.noise_dbm(bandwidth_hz)
        return LinkResult(distance_m=float(distance_m), rss_dbm=float(rss),
                          noise_dbm=float(noise), snr_db=float(rss - noise),
                          path_loss_db=float(loss))

    # ------------------------------------------------------------------
    def apply_to_waveform(self, waveform: Signal, distance_m: float, *,
                          add_noise: bool = True,
                          random_state: RandomState = None,
                          include_fading: bool = False) -> Signal:
        """Scale ``waveform`` to the received power and add the noise floor.

        The transmitted waveform is assumed to be unit-power; the output's
        mean power (in the ``|x|^2`` sense) equals the received power in
        watts, so downstream power meters read the correct RSS.  Noise is
        added across the full simulated bandwidth (the waveform's sample
        rate), which slightly over-estimates the in-band noise for
        oversampled waveforms — receivers are expected to filter to their
        bandwidth before measuring SNR, exactly as real hardware does.
        """
        rng = as_rng(random_state)
        rss = self.rss_dbm(distance_m, random_state=rng, include_fading=include_fading)
        rx_power_w = float(dbm_to_watts(rss))
        tx_power = waveform.power()
        if tx_power <= 0:
            raise LinkError("transmitted waveform has zero power")
        scaled = waveform.scaled(np.sqrt(rx_power_w / tx_power))
        if not add_noise:
            return scaled.relabel(f"{waveform.label}@{distance_m:g}m")
        noise_total_dbm = self.noise_dbm(waveform.sample_rate)
        noisy = add_awgn(scaled, float(dbm_to_watts(noise_total_dbm)), random_state=rng)
        return noisy.relabel(f"{waveform.label}@{distance_m:g}m")

    # ------------------------------------------------------------------
    def with_(self, **kwargs) -> "LinkBudget":
        """Return a copy with some fields replaced."""
        return replace(self, **kwargs)
