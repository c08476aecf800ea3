"""Saiyan core: the paper's primary contribution.

The pipeline mirrors Figure 12 of the paper:

1. :mod:`~repro.core.frontend` — SAW filter + LNA + envelope detection, the
   frequency-to-amplitude transformation (vanilla Saiyan, §2).
2. :mod:`~repro.core.cyclic_shift` — the cyclic-frequency-shifting circuit
   that recovers the SNR lost to envelope-detector self-mixing (§3.1).
3. :mod:`~repro.core.quantizer` — double-threshold comparator quantization
   with the §4.1 threshold-calibration rule.
4. :mod:`~repro.core.peak_detection` / :mod:`~repro.core.correlation` — peak
   position decoding and the Super Saiyan correlator (§3.2).
5. :mod:`~repro.core.demodulator` / :mod:`~repro.core.decoder` /
   :mod:`~repro.core.receiver` — symbol, packet and receiver-level APIs.
6. :mod:`~repro.core.sampling` — the Table 1 sampling-rate rule.
7. :mod:`~repro.core.power_model` — PCB and ASIC power budgets of the tag.
"""

from repro.core.config import SaiyanConfig, SaiyanMode
from repro.core.sampling import (
    theoretical_sampling_rate_hz,
    practical_sampling_rate_hz,
    sampling_rate_table,
)
from repro.core.cyclic_shift import CyclicFrequencyShifter
from repro.core.frontend import AnalogFrontEnd, FrontEndOutput
from repro.core.quantizer import ThresholdCalibrator, SaiyanQuantizer
from repro.core.peak_detection import PeakPositionDecoder, peak_position_to_symbol
from repro.core.correlation import CorrelationDemodulator
from repro.core.demodulator import (
    VanillaSaiyanDemodulator,
    SuperSaiyanDemodulator,
    SymbolDecision,
)
from repro.core.decoder import SaiyanPacketDecoder, DecodedPacket
from repro.core.receiver import SaiyanReceiver, ReceptionReport
from repro.core.power_model import SaiyanPowerModel

__all__ = [
    "SaiyanConfig",
    "SaiyanMode",
    "theoretical_sampling_rate_hz",
    "practical_sampling_rate_hz",
    "sampling_rate_table",
    "CyclicFrequencyShifter",
    "AnalogFrontEnd",
    "FrontEndOutput",
    "ThresholdCalibrator",
    "SaiyanQuantizer",
    "PeakPositionDecoder",
    "peak_position_to_symbol",
    "CorrelationDemodulator",
    "VanillaSaiyanDemodulator",
    "SuperSaiyanDemodulator",
    "SymbolDecision",
    "SaiyanPacketDecoder",
    "DecodedPacket",
    "SaiyanReceiver",
    "ReceptionReport",
    "SaiyanPowerModel",
]
