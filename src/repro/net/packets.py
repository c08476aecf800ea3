"""Packet and command types exchanged between the access point and tags.

The downlink carries short feedback commands (§1 lists the use cases:
on-demand retransmission, channel hopping, rate adaptation and remote sensor
control); the uplink carries the tags' backscattered data packets and
acknowledgements.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ProtocolError
from repro.utils.validation import ensure_integer, ensure_non_negative


class CommandType(enum.IntEnum):
    """Downlink feedback command types."""

    RETRANSMIT = 0
    CHANNEL_HOP = 1
    RATE_CHANGE = 2
    SENSOR_ON = 3
    SENSOR_OFF = 4
    ACK_REQUEST = 5


#: Address that targets every tag in radio range (broadcast).
BROADCAST_ADDRESS: int = 0xFF


@dataclass(frozen=True)
class DownlinkCommand:
    """A feedback command from the access point to one (or all) tags.

    Parameters
    ----------
    command:
        The command type.
    target_tag_id:
        Tag address in ``[0, 254]`` or :data:`BROADCAST_ADDRESS` for
        broadcast/multicast commands.
    argument:
        Command argument: sequence number to retransmit, channel index to
        hop to, new bits-per-chirp, etc.  Must fit in 8 bits.
    """

    command: CommandType
    target_tag_id: int = BROADCAST_ADDRESS
    argument: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.command, CommandType):
            raise ProtocolError(f"command must be a CommandType, got {self.command!r}")
        ensure_integer(self.target_tag_id, "target_tag_id", minimum=0, maximum=255)
        ensure_integer(self.argument, "argument", minimum=0, maximum=255)

    @property
    def is_broadcast(self) -> bool:
        """Whether this command addresses every tag."""
        return self.target_tag_id == BROADCAST_ADDRESS

    def targets(self, tag_id: int) -> bool:
        """Whether ``tag_id`` should act on this command."""
        return self.is_broadcast or self.target_tag_id == tag_id


@dataclass(frozen=True)
class UplinkPacket:
    """A backscattered data packet from a tag.

    Parameters
    ----------
    tag_id:
        Source tag address.
    sequence:
        Per-tag sequence number.
    payload_bits:
        Application payload.
    channel_hz:
        Channel the packet was sent on.
    is_retransmission:
        Whether this transmission repeats an earlier sequence number.
    """

    tag_id: int
    sequence: int
    payload_bits: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    channel_hz: float = 433.5e6
    is_retransmission: bool = False

    def __post_init__(self) -> None:
        ensure_integer(self.tag_id, "tag_id", minimum=0, maximum=254)
        ensure_integer(self.sequence, "sequence", minimum=0)
        ensure_non_negative(self.channel_hz, "channel_hz")
        bits = np.asarray(self.payload_bits, dtype=np.int64).ravel()
        if bits.size and not np.all((bits == 0) | (bits == 1)):
            raise ProtocolError("payload_bits may only contain 0s and 1s")
        object.__setattr__(self, "payload_bits", bits)

    @property
    def key(self) -> tuple[int, int]:
        """The (tag, sequence) identity of the packet."""
        return (self.tag_id, self.sequence)


@dataclass(frozen=True)
class AckPacket:
    """A tag's acknowledgement of a downlink command (Figure 15 exchange)."""

    tag_id: int
    acked_command: CommandType
    slot: int = 0

    def __post_init__(self) -> None:
        ensure_integer(self.tag_id, "tag_id", minimum=0, maximum=254)
        if not isinstance(self.acked_command, CommandType):
            raise ProtocolError(
                f"acked_command must be a CommandType, got {self.acked_command!r}")
        ensure_integer(self.slot, "slot", minimum=0)
