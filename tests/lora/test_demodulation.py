"""Unit tests for the standard (FFT-based) LoRa demodulator."""

import numpy as np
import pytest

from repro.dsp.noise import add_awgn_snr
from repro.dsp.signals import Signal
from repro.exceptions import DemodulationError
from repro.lora.demodulation import LoRaDemodulator
from repro.lora.modulation import LoRaModulator
from repro.lora.packet import LoRaPacket
from repro.lora.parameters import DownlinkParameters


@pytest.fixture
def lora_pair(lora_params):
    return (LoRaModulator(lora_params, oversampling=4),
            LoRaDemodulator(lora_params, oversampling=4))


def test_single_symbol_round_trip(lora_pair):
    modulator, demodulator = lora_pair
    for symbol in (0, 1, 64, 127):
        waveform = modulator.symbol_waveform(symbol)
        decoded, magnitude = demodulator.demodulate_symbol(waveform)
        assert decoded == symbol
        assert magnitude > 0


def test_payload_round_trip_clean(lora_pair, rng):
    modulator, demodulator = lora_pair
    symbols = rng.integers(0, 128, size=30)
    waveform = modulator.modulate_symbols(symbols)
    result = demodulator.demodulate_payload(waveform, 30)
    np.testing.assert_array_equal(result.symbols, symbols)


def test_payload_round_trip_moderate_noise(lora_pair, rng):
    modulator, demodulator = lora_pair
    symbols = rng.integers(0, 128, size=20)
    waveform = add_awgn_snr(modulator.modulate_symbols(symbols), 0.0, random_state=rng)
    result = demodulator.demodulate_payload(waveform, 20)
    errors = int(np.sum(result.symbols != symbols))
    assert errors <= 1  # LoRa decodes at 0 dB SNR with big margin


def test_demodulate_payload_requires_enough_samples(lora_pair):
    modulator, demodulator = lora_pair
    waveform = modulator.symbol_waveform(0)
    with pytest.raises(DemodulationError):
        demodulator.demodulate_payload(waveform, 2)


def test_demodulate_rejects_wrong_sample_rate(lora_params):
    demodulator = LoRaDemodulator(lora_params, oversampling=4)
    wrong = Signal(np.ones(1024, dtype=complex), 1e6)
    with pytest.raises(DemodulationError):
        demodulator.demodulate_symbol(wrong)


def test_bit_errors_counts_mismatches(lora_params, rng):
    modulator = LoRaModulator(lora_params, oversampling=4)
    demodulator = LoRaDemodulator(lora_params, oversampling=4)
    packet = LoRaPacket.random(6, lora_params, rng=rng)
    result = demodulator.demodulate_payload(modulator.modulate_symbols(packet.symbols), 6)
    np.testing.assert_array_equal(result.bits, packet.payload_bits)


def test_downlink_alphabet_quantisation(rng):
    downlink = DownlinkParameters(spreading_factor=7, bandwidth_hz=500e3, bits_per_chirp=2)
    modulator = LoRaModulator(downlink, oversampling=4)
    demodulator = LoRaDemodulator(downlink, oversampling=4)
    symbols = rng.integers(0, 4, size=12)
    result = demodulator.demodulate_payload(modulator.modulate_symbols(symbols), 12)
    np.testing.assert_array_equal(result.symbols, symbols)


def test_invalid_oversampling_rejected(lora_params):
    with pytest.raises(DemodulationError):
        LoRaDemodulator(lora_params, oversampling=0)
