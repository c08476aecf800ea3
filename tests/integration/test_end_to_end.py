"""Integration tests: transmitter -> channel -> Saiyan tag, end to end."""

from repro.channel.environment import indoor_environment, outdoor_environment
from repro.channel.fading import NoFading
from repro.core.config import SaiyanConfig, SaiyanMode
from repro.core.receiver import SaiyanReceiver
from repro.lora.modulation import LoRaModulator
from repro.lora.packet import LoRaPacket, PacketStructure
from repro.lora.parameters import DownlinkParameters


def _transmit_and_receive(downlink, packet, distance_m, *, mode=SaiyanMode.SUPER,
                          environment=None, seed=0):
    environment = environment or outdoor_environment(fading=NoFading())
    link = environment.link_budget()
    modulator = LoRaModulator(downlink, oversampling=4)
    waveform = modulator.modulate(packet)
    received = link.apply_to_waveform(waveform, distance_m, random_state=seed)
    receiver = SaiyanReceiver(SaiyanConfig(downlink=downlink, mode=mode),
                              structure=packet.structure)
    return receiver.receive(received, reference=packet, random_state=seed + 1)


def test_short_range_packet_is_error_free(downlink, rng):
    structure = PacketStructure(payload_symbols=12)
    packet = LoRaPacket.random(12, downlink, rng=rng)
    packet = LoRaPacket(payload_bits=packet.payload_bits, parameters=downlink,
                        structure=structure)
    report = _transmit_and_receive(downlink, packet, 20.0)
    assert report.packet_ok


def test_medium_range_super_saiyan_still_decodes(downlink, rng):
    structure = PacketStructure(payload_symbols=8)
    packet = LoRaPacket.random(8, downlink, rng=rng)
    packet = LoRaPacket(payload_bits=packet.payload_bits, parameters=downlink,
                        structure=structure)
    report = _transmit_and_receive(downlink, packet, 100.0, seed=5)
    assert report.detected
    assert report.bit_error_rate < 0.1


def test_vanilla_receiver_works_at_close_range(downlink, rng):
    structure = PacketStructure(payload_symbols=6)
    packet = LoRaPacket.random(6, downlink, rng=rng)
    packet = LoRaPacket(payload_bits=packet.payload_bits, parameters=downlink,
                        structure=structure)
    report = _transmit_and_receive(downlink, packet, 10.0, mode=SaiyanMode.VANILLA, seed=7)
    assert report.detected
    assert report.bit_error_rate < 0.15


def test_indoor_wall_degrades_link(downlink, rng):
    structure = PacketStructure(payload_symbols=6)
    packet = LoRaPacket.random(6, downlink, rng=rng)
    packet = LoRaPacket(payload_bits=packet.payload_bits, parameters=downlink,
                        structure=structure)
    outdoor_report = _transmit_and_receive(downlink, packet, 40.0, seed=9)
    indoor_report = _transmit_and_receive(
        downlink, packet, 40.0, seed=9,
        environment=indoor_environment(num_walls=2, fading=NoFading()))
    assert outdoor_report.detected
    # Two concrete walls at 40 m push the signal towards the noise floor.
    assert indoor_report.bit_error_rate >= outdoor_report.bit_error_rate


def test_different_downlink_rates_round_trip(rng):
    for k in (1, 3):
        downlink = DownlinkParameters(spreading_factor=7, bandwidth_hz=500e3,
                                      bits_per_chirp=k)
        structure = PacketStructure(payload_symbols=6)
        packet = LoRaPacket.random(6, downlink, rng=rng)
        packet = LoRaPacket(payload_bits=packet.payload_bits, parameters=downlink,
                            structure=structure)
        report = _transmit_and_receive(downlink, packet, 30.0, seed=13 + k)
        assert report.packet_ok
