"""Commodity LoRa receiver baseline.

The standard LoRa receive chain — down-converter, ADC sampling at twice the
chirp bandwidth, FFT demodulation — is what the access point uses (it has no
power constraint) and what a backscatter tag *cannot* afford: the chain
draws ~40 mW (§1), which the paper's solar harvester would take about 17
minutes to bank per packet.

:class:`StandardLoRaReceiver` is the link-level model of that chain: its SNR
thresholds and symbol error probability feed the link and network models,
and its energy per packet lets the power benchmarks put Saiyan's 93.2 µW
ASIC next to it.  The waveform-level FFT demodulator is
:class:`~repro.lora.demodulation.LoRaDemodulator`.
"""

from __future__ import annotations

import numpy as np

from repro.constants import STANDARD_LORA_RX_POWER_MW
from repro.exceptions import ConfigurationError
from repro.lora.parameters import DownlinkParameters, LoRaParameters
from repro.utils import arrays

#: SNR (dB, in the chirp bandwidth) above which a commodity LoRa receiver
#: demodulates SF7 essentially error-free.  LoRa's processing gain lets it
#: operate below the noise floor; -7.5 dB is the SX127x SF7 figure.
LORA_SNR_THRESHOLDS_DB: dict[int, float] = {
    7: -7.5, 8: -10.0, 9: -12.5, 10: -15.0, 11: -17.5, 12: -20.0,
}


class StandardLoRaReceiver:
    """Full-power FFT-based LoRa receiver (the access-point receiver).

    Parameters
    ----------
    parameters:
        LoRa or downlink air-interface parameters.
    """

    name = "standard_lora"
    can_demodulate_payload = True
    power_mw = STANDARD_LORA_RX_POWER_MW

    def __init__(self, parameters: LoRaParameters | DownlinkParameters | None = None
                 ) -> None:
        self.parameters = parameters if parameters is not None else LoRaParameters()

    @classmethod
    def snr_threshold_db(cls, spreading_factor: int) -> float:
        """Demodulation SNR threshold for ``spreading_factor`` (link-level model)."""
        if spreading_factor not in LORA_SNR_THRESHOLDS_DB:
            # Extrapolate the 2.5 dB-per-SF trend beyond the table.
            return -7.5 - 2.5 * (spreading_factor - 7)
        return LORA_SNR_THRESHOLDS_DB[spreading_factor]

    @classmethod
    def symbol_error_probability(cls, snr_db, spreading_factor: int):
        """Approximate symbol error probability of FFT demodulation.

        Uses the union bound for non-coherent orthogonal signalling with
        ``2**SF`` hypotheses and the LoRa processing gain ``2**SF``:
        ``P_s ≈ (M-1)/2 * exp(-gamma/2)`` where ``gamma`` is the post-despread
        SNR, clipped to [0, 1].  ``snr_db`` may be a scalar or an array.
        """
        chips = 2 ** spreading_factor
        gamma = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0) * chips
        p = (chips - 1) / 2.0 * np.exp(-gamma / 2.0)
        return arrays.match_scalar(np.clip(p, 0.0, 1.0), snr_db)

    def energy_per_packet_uj(self, packet_duration_s: float) -> float:
        """Energy (µJ) the commodity chain spends receiving one packet."""
        if packet_duration_s <= 0:
            raise ConfigurationError("packet_duration_s must be positive")
        return self.power_mw * 1e3 * packet_duration_s
