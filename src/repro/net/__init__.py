"""Network layer: tags, access point, feedback loop, MAC.

Implements the system pieces the paper builds *around* the demodulator: the
backscatter tag that can now hear the access point, the access point that
issues feedback commands (retransmission requests, channel hops, rate
changes, sensor control), the ARQ retransmission policy, the channel-hopping
and rate-adaptation controllers, and the slotted-ALOHA MAC used when several
tags acknowledge the same downlink (§4.4, Figure 15, §5.3).

Commands travel as typed :class:`~repro.net.packets.DownlinkCommand` values:
whether a tag hears one is decided from its downlink RSS, so the feedback
loop is modelled at the probability level, with no over-the-air bit encoding.
"""

from repro.net.packets import (
    CommandType,
    DownlinkCommand,
    UplinkPacket,
    AckPacket,
)
from repro.net.tag import BackscatterTag, TagState
from repro.net.access_point import AccessPoint
from repro.net.retransmission import RetransmissionPolicy, ArqTracker
from repro.net.channel_hopping import ChannelPlan, ChannelHopController
from repro.net.rate_adaptation import RateAdapter, RateDecision
from repro.net.mac import SlottedAlohaMac, SlotOutcome

__all__ = [
    "CommandType",
    "DownlinkCommand",
    "UplinkPacket",
    "AckPacket",
    "BackscatterTag",
    "TagState",
    "AccessPoint",
    "RetransmissionPolicy",
    "ArqTracker",
    "ChannelPlan",
    "ChannelHopController",
    "RateAdapter",
    "RateDecision",
    "SlottedAlohaMac",
    "SlotOutcome",
]
