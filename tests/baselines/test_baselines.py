"""Unit tests for the baseline receivers (PLoRa, Aloba, standard LoRa, envelope)."""

import numpy as np
import pytest

from repro.baselines.aloba import AlobaDetector
from repro.baselines.envelope_receiver import ConventionalEnvelopeReceiver
from repro.baselines.plora import PLoRaDetector
from repro.baselines.standard_lora import StandardLoRaReceiver
from repro.constants import SAIYAN_SENSITIVITY_DBM
from repro.dsp.noise import add_awgn_snr
from repro.dsp.signals import Signal
from repro.exceptions import ConfigurationError
from repro.lora.modulation import LoRaModulator
from repro.lora.packet import LoRaPacket


@pytest.fixture
def packet_waveform(lora_params, rng):
    modulator = LoRaModulator(lora_params, oversampling=4)
    packet = LoRaPacket.random(8, lora_params, rng=rng)
    return packet, modulator.modulate(packet), modulator


# ---------------------------------------------------------------------------
# PLoRa
# ---------------------------------------------------------------------------

def test_plora_detects_lora_packet(packet_waveform, lora_params):
    _, waveform, _ = packet_waveform
    detector = PLoRaDetector(lora_params, oversampling=4)
    assert detector.detect(waveform)
    assert detector.detection_index(waveform) is not None


def test_plora_does_not_detect_noise(lora_params, rng):
    detector = PLoRaDetector(lora_params, oversampling=4)
    noise = Signal(0.01 * (rng.normal(size=20_000) + 1j * rng.normal(size=20_000)),
                   detector.sample_rate)
    assert not detector.detect(noise)


def test_plora_detects_at_low_snr(packet_waveform, lora_params, rng):
    _, waveform, _ = packet_waveform
    detector = PLoRaDetector(lora_params, oversampling=4, detection_threshold=0.3)
    noisy = add_awgn_snr(waveform, -5.0, random_state=rng)
    assert detector.detect(noisy)


def test_plora_rejects_wrong_sample_rate(lora_params):
    detector = PLoRaDetector(lora_params, oversampling=4)
    with pytest.raises(ConfigurationError):
        detector.detect(Signal(np.ones(4096, dtype=complex), 1e6))


def test_plora_link_level_sensitivity():
    assert PLoRaDetector.detects_at_rss(-60.0)
    assert not PLoRaDetector.detects_at_rss(-70.0)
    assert not PLoRaDetector.can_demodulate_payload


# ---------------------------------------------------------------------------
# Aloba
# ---------------------------------------------------------------------------

def test_aloba_detects_packet_after_silence(lora_params, rng):
    modulator = LoRaModulator(lora_params, oversampling=4)
    packet = LoRaPacket.random(8, lora_params, rng=rng)
    waveform = modulator.modulate(packet)
    silence = Signal(1e-3 * (rng.normal(size=5000) + 1j * rng.normal(size=5000)),
                     modulator.sample_rate)
    detector = AlobaDetector(lora_params, oversampling=4)
    assert detector.detect(silence.concatenate(waveform))


def test_aloba_does_not_detect_pure_noise(lora_params, rng):
    detector = AlobaDetector(lora_params, oversampling=4)
    noise = Signal(1e-3 * (rng.normal(size=30_000) + 1j * rng.normal(size=30_000)),
                   detector.sample_rate)
    assert not detector.detect(noise)


def test_aloba_rssi_profile_rises_during_packet(lora_params, rng):
    modulator = LoRaModulator(lora_params, oversampling=4)
    packet = LoRaPacket.random(4, lora_params, rng=rng)
    silence = Signal(np.full(5000, 1e-4, dtype=complex), modulator.sample_rate)
    waveform = silence.concatenate(modulator.modulate(packet))
    detector = AlobaDetector(lora_params, oversampling=4)
    profile = np.asarray(detector.rssi_profile(waveform).samples)
    assert profile[8000:].max() > 100 * profile[:3000].mean()


def test_aloba_link_level_sensitivity_is_worst():
    assert AlobaDetector.detection_sensitivity_dbm > PLoRaDetector.detection_sensitivity_dbm
    assert AlobaDetector.detection_sensitivity_dbm > SAIYAN_SENSITIVITY_DBM


# ---------------------------------------------------------------------------
# Standard LoRa receiver
# ---------------------------------------------------------------------------

def test_standard_lora_snr_thresholds_decrease_with_sf():
    assert (StandardLoRaReceiver.snr_threshold_db(12)
            < StandardLoRaReceiver.snr_threshold_db(7))


def test_standard_lora_symbol_error_probability_behaviour():
    low_snr = StandardLoRaReceiver.symbol_error_probability(-30.0, 7)
    high_snr = StandardLoRaReceiver.symbol_error_probability(0.0, 7)
    assert low_snr > 0.9
    assert high_snr < 1e-6


def test_standard_lora_power_is_tens_of_milliwatts():
    receiver = StandardLoRaReceiver()
    assert receiver.power_mw == pytest.approx(40.0)
    assert receiver.energy_per_packet_uj(25e-3) == pytest.approx(1000.0)


def test_standard_lora_validation(lora_params):
    with pytest.raises(ConfigurationError):
        StandardLoRaReceiver(lora_params).energy_per_packet_uj(0.0)


# ---------------------------------------------------------------------------
# Conventional envelope receiver
# ---------------------------------------------------------------------------

def test_envelope_receiver_sees_energy_but_no_structure(packet_waveform, lora_params):
    _, waveform, _ = packet_waveform
    receiver = ConventionalEnvelopeReceiver(lora_params)
    # Energy is detectable...
    assert receiver.detect_energy(waveform, noise_floor=1e-6)
    # ...but the envelope of a LoRa chirp is essentially flat (the residual
    # variation comes from filter transients at symbol boundaries), far from
    # the order-of-magnitude swing the SAW-transformed signal shows.
    assert receiver.envelope_variation(waveform) < 0.5


def test_envelope_receiver_saw_transformed_signal_has_structure(packet_waveform,
                                                                lora_params):
    from repro.hardware.saw_filter import SAWFilter

    _, waveform, _ = packet_waveform
    receiver = ConventionalEnvelopeReceiver(lora_params)
    shaped = SAWFilter().apply(waveform)
    assert receiver.envelope_variation(shaped) > 1.0


def test_envelope_receiver_quantize_returns_binary(packet_waveform, lora_params):
    _, waveform, _ = packet_waveform
    receiver = ConventionalEnvelopeReceiver(lora_params)
    binary = receiver.quantize(waveform)
    assert set(np.unique(binary)).issubset({0, 1})


def test_envelope_receiver_sensitivity_is_30db_worse_than_saiyan():
    gap = ConventionalEnvelopeReceiver.detection_sensitivity_dbm - SAIYAN_SENSITIVITY_DBM
    assert gap == pytest.approx(30.0, abs=0.5)


def test_envelope_receiver_validation(lora_params):
    receiver = ConventionalEnvelopeReceiver(lora_params)
    with pytest.raises(ConfigurationError):
        receiver.envelope(np.ones(10))
