"""Analog/digital hardware component models.

Each class models one component of the Saiyan prototype (Figure 12/13): the
SAW filter that performs the frequency-to-amplitude transformation, the
common-gate LNA, the square-law envelope detector, the double-threshold
comparator, the MCU voltage sampler, the mixers/oscillator/IF-amplifier/LPF
of the cyclic-frequency-shifting circuit, the solar energy harvester, and
the ADC of a commodity receive chain (the §1 power comparison).  Every
component also carries a power and cost model so the Table 2 / §4.3 energy
accounting can be reproduced.
"""

from repro.hardware.component import Component, PowerProfile
from repro.hardware.saw_filter import SAWFilter, SAWFilterResponse
from repro.hardware.lna import LowNoiseAmplifier
from repro.hardware.envelope_detector import EnvelopeDetector
from repro.hardware.comparator import (
    SingleThresholdComparator,
    DoubleThresholdComparator,
    ComparatorOutput,
)
from repro.hardware.sampler import VoltageSampler
from repro.hardware.rf_mixer import RFMixer
from repro.hardware.oscillator import Oscillator, DelayLine
from repro.hardware.if_amplifier import IFAmplifier
from repro.hardware.lpf import AnalogLowPassFilter
from repro.hardware.adc import ADC
from repro.hardware.energy_harvester import EnergyHarvester
from repro.hardware.power import PowerLedger, pcb_power_table, asic_power_budget

__all__ = [
    "Component",
    "PowerProfile",
    "SAWFilter",
    "SAWFilterResponse",
    "LowNoiseAmplifier",
    "EnvelopeDetector",
    "SingleThresholdComparator",
    "DoubleThresholdComparator",
    "ComparatorOutput",
    "VoltageSampler",
    "RFMixer",
    "Oscillator",
    "DelayLine",
    "IFAmplifier",
    "AnalogLowPassFilter",
    "ADC",
    "EnergyHarvester",
    "PowerLedger",
    "pcb_power_table",
    "asic_power_budget",
]
