"""LoRa physical-layer substrate.

Implements the pieces of the LoRa PHY the paper relies on: chirp-spread-
spectrum modulation, FFT demodulation of aligned chirps, and the packet
structure (preamble, sync word, payload) Saiyan synchronises to, with the
symbol/bit mapping of the payload.

The paper additionally uses a reduced-alphabet "coding rate" ``K`` (bits per
chirp, data rate = ``K * BW / 2**SF``) for the downlink feedback signals that
Saiyan demodulates; that alphabet is implemented by
:class:`~repro.lora.parameters.DownlinkParameters`.
"""

from repro.lora.parameters import LoRaParameters, DownlinkParameters
from repro.lora.modulation import LoRaModulator
from repro.lora.demodulation import LoRaDemodulator
from repro.lora.packet import LoRaPacket, PacketStructure, bits_to_symbols, symbols_to_bits

__all__ = [
    "LoRaParameters",
    "DownlinkParameters",
    "LoRaModulator",
    "LoRaDemodulator",
    "LoRaPacket",
    "PacketStructure",
    "bits_to_symbols",
    "symbols_to_bits",
]
