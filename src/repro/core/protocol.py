"""XenLoop control-message wire formats.

These messages travel as raw Ethernet frames with the XenLoop-type
protocol ID (:data:`repro.net.ethernet.ETH_P_XENLOOP`) over the
*standard* netfront/netback path -- out-of-band with respect to the
shared-memory channel they negotiate (paper Sect. 3.2-3.3):

* ``ANNOUNCE``   -- Dom0 discovery -> each willing guest: the collated
  list of [guest-ID, MAC] identity pairs of all advertising guests.
* ``CONNECT_REQUEST`` -- larger-ID guest -> smaller-ID guest: "you are
  the listener; please create a channel" (sent when the connector side
  sees first traffic).
* ``CREATE_CHANNEL`` -- listener -> connector: grant references of the
  two FIFO descriptor pages plus the unbound event-channel port.
* ``CHANNEL_ACK``  -- connector -> listener: channel is mapped and bound.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.net.addr import MacAddr

__all__ = [
    "Announce",
    "ChannelAck",
    "ConnectRequest",
    "CreateChannel",
    "DOM0_MAC",
    "parse_message",
]

MSG_ANNOUNCE = 1
MSG_CONNECT_REQUEST = 2
MSG_CREATE_CHANNEL = 3
MSG_CHANNEL_ACK = 4

#: Dom0's bridge-facing identity: the source MAC of every Announce.
DOM0_MAC = MacAddr("fe:ff:ff:ff:ff:ff")

_HDR = struct.Struct("!HI")  # msg type, sender domid


@dataclass
class Announce:
    """[guest-ID, MAC] identity pairs of all willing co-resident guests."""

    sender_domid: int
    entries: list[tuple[int, MacAddr]]

    def to_bytes(self) -> bytes:
        """Serialize to the XenLoop-type wire format."""
        out = [_HDR.pack(MSG_ANNOUNCE, self.sender_domid), struct.pack("!H", len(self.entries))]
        for domid, mac in self.entries:
            out.append(struct.pack("!I6s", domid, mac.to_bytes()))
        return b"".join(out)

    @classmethod
    def _parse(cls, sender: int, body: bytes) -> "Announce":
        (count,) = struct.unpack_from("!H", body)
        entries = []
        offset = 2
        for _ in range(count):
            domid, mac = struct.unpack_from("!I6s", body, offset)
            entries.append((domid, MacAddr.from_bytes(mac)))
            offset += 10
        return cls(sender, entries)


@dataclass
class ConnectRequest:
    """Larger-ID guest asking the smaller-ID peer to act as listener."""
    sender_domid: int
    sender_mac: MacAddr

    def to_bytes(self) -> bytes:
        """Serialize to the XenLoop-type wire format."""
        return _HDR.pack(MSG_CONNECT_REQUEST, self.sender_domid) + struct.pack(
            "!6s", self.sender_mac.to_bytes()
        )

    @classmethod
    def _parse(cls, sender: int, body: bytes) -> "ConnectRequest":
        (mac,) = struct.unpack_from("!6s", body)
        return cls(sender, MacAddr.from_bytes(mac))


@dataclass
class CreateChannel:
    """Three pieces of information, per the paper: two grant references
    (one per FIFO descriptor page) and the event-channel port number."""

    sender_domid: int
    #: gref of the descriptor page of the listener->connector FIFO.
    gref_out: int
    #: gref of the descriptor page of the connector->listener FIFO.
    gref_in: int
    evtchn_port: int

    def to_bytes(self) -> bytes:
        """Serialize to the XenLoop-type wire format."""
        return _HDR.pack(MSG_CREATE_CHANNEL, self.sender_domid) + struct.pack(
            "!III", self.gref_out, self.gref_in, self.evtchn_port
        )

    @classmethod
    def _parse(cls, sender: int, body: bytes) -> "CreateChannel":
        gref_out, gref_in, port = struct.unpack_from("!III", body)
        return cls(sender, gref_out, gref_in, port)


@dataclass
class ChannelAck:
    """Connector's confirmation that the channel is mapped and bound."""
    sender_domid: int

    def to_bytes(self) -> bytes:
        """Serialize to the XenLoop-type wire format."""
        return _HDR.pack(MSG_CHANNEL_ACK, self.sender_domid)

    @classmethod
    def _parse(cls, sender: int, body: bytes) -> "ChannelAck":
        return cls(sender)


_PARSERS = {
    MSG_ANNOUNCE: Announce._parse,
    MSG_CONNECT_REQUEST: ConnectRequest._parse,
    MSG_CREATE_CHANNEL: CreateChannel._parse,
    MSG_CHANNEL_ACK: ChannelAck._parse,
}


def parse_message(payload: bytes):
    """Parse an ETH_P_XENLOOP frame payload into a message object."""
    if len(payload) < _HDR.size:
        raise ValueError(f"short XenLoop message: {len(payload)} bytes")
    msg_type, sender = _HDR.unpack_from(payload)
    parser = _PARSERS.get(msg_type)
    if parser is None:
        raise ValueError(f"unknown XenLoop message type {msg_type}")
    return parser(sender, payload[_HDR.size :])
