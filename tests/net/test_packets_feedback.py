"""Unit tests for downlink/uplink packet types."""

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.net.packets import (
    AckPacket,
    CommandType,
    DownlinkCommand,
    UplinkPacket,
)


# ---------------------------------------------------------------------------
# Packet types
# ---------------------------------------------------------------------------

def test_downlink_command_targeting():
    unicast = DownlinkCommand(command=CommandType.RETRANSMIT, target_tag_id=5, argument=3)
    assert unicast.targets(5)
    assert not unicast.targets(6)
    assert not unicast.is_broadcast


def test_broadcast_command_targets_everyone():
    broadcast = DownlinkCommand(command=CommandType.SENSOR_OFF)
    assert broadcast.is_broadcast
    assert broadcast.targets(0)
    assert broadcast.targets(200)


def test_downlink_command_validation():
    with pytest.raises(ProtocolError):
        DownlinkCommand(command="retransmit")
    with pytest.raises(Exception):
        DownlinkCommand(command=CommandType.RETRANSMIT, target_tag_id=300)
    with pytest.raises(Exception):
        DownlinkCommand(command=CommandType.RETRANSMIT, argument=256)


def test_uplink_packet_key_and_validation():
    packet = UplinkPacket(tag_id=3, sequence=17, payload_bits=np.array([0, 1, 1]))
    assert packet.key == (3, 17)
    with pytest.raises(ProtocolError):
        UplinkPacket(tag_id=1, sequence=0, payload_bits=np.array([2]))
    with pytest.raises(Exception):
        UplinkPacket(tag_id=255, sequence=0)


def test_ack_packet_validation():
    ack = AckPacket(tag_id=1, acked_command=CommandType.CHANNEL_HOP, slot=3)
    assert ack.slot == 3
    with pytest.raises(ProtocolError):
        AckPacket(tag_id=1, acked_command="hop")
