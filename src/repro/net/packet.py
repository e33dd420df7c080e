"""Packets and protocol headers -- the simulation's ``struct sk_buff``.

Headers are small slotted dataclasses with real binary serialization
(``to_bytes`` / ``from_bytes``); the XenLoop FIFO carries genuine
serialized layer-3 packets, so anything that goes through the channel
is round-tripped through its wire format.  This is what lets the test
suite assert byte-exact delivery through the shared-memory path.

The data path does only the work a packet needs (see
docs/architecture.md, "Packet data path"):

* ``to_bytes`` packs the header's current fields on every call; nothing
  is cached, so there is nothing to invalidate when a field changes;
* ``Packet.to_l3_parts`` packs the IP and L4 headers and passes the
  payload through by reference (the scatter-gather FIFO send path);
* ``Packet.from_l3_bytes`` parses the IP and L4 headers once, on
  receive, and slices out the payload.

Conventions:

* A packet with ``ip.frag_offset > 0`` or ``ip.more_frags`` is an IP
  fragment: ``l4 is None`` and ``payload`` is the raw slice of the
  original layer-3 payload (the first fragment's slice starts with the
  serialized L4 header, as on a real wire).
* ``payload`` is immutable ``bytes`` and may be shared between clones.
* ``meta`` is simulation-side bookkeeping (timestamps, path taken) and
  is never serialized.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Any, Optional, Union

from repro.net.addr import IPv4Addr, MacAddr
from repro.net.ethernet import (
    ETH_HEADER_LEN,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
)
from repro.sim.metrics import Counters

__all__ = [
    "ArpHeader",
    "EthHeader",
    "IPv4Header",
    "IcmpHeader",
    "Packet",
    "TcpHeader",
    "UdpHeader",
    "WIRE_STATS",
    "TCP_SYN",
    "TCP_ACK",
    "TCP_FIN",
    "TCP_PSH",
    "TCP_RST",
]

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10


#: Process-global serialization and copy counters, the singleton every
#: header/packet/FIFO instance counts into.  Reported under the
#: ``serialization`` key of :func:`repro.trace.engine_stats` so the
#: data path is observable; ``reset()`` before a measured run.  The
#: cache-named keys keep their historical names but count work done:
#: ``header_cache_misses`` one per header pack, ``l3_cache_misses`` one
#: per L3 serialization, ``lazy_l4_parses`` one per received-packet
#: parse; both ``*_hits`` keys stay 0.
WIRE_STATS = Counters(
    "l3_cache_hits",
    "l3_cache_misses",
    "header_cache_hits",
    "header_cache_misses",
    "lazy_l4_parses",
    "bytes_packed",
    "bytes_parsed",
    "fifo_bytes_in",
    "fifo_bytes_out",
)

_ETH = struct.Struct("!6s6sH")
_ARP = struct.Struct("!H6s4s6s4s")
# version/IHL/TOS and checksum are carried as padding (4x total with
# the two trailing bytes): 2+2+2+1+1+4+4+4 = 20 bytes.
_IPV4 = struct.Struct("!HHHBB4s4s4x")
_UDP = struct.Struct("!HHH2x")
_TCP = struct.Struct("!HHIIBBH4x")
_ICMP = struct.Struct("!BBxxHH")


def _packed(data: bytes) -> bytes:
    """Count one header pack of ``data`` and return it."""
    WIRE_STATS.header_cache_misses += 1
    WIRE_STATS.bytes_packed += len(data)
    return data


@dataclass(slots=True)
class EthHeader:
    """Ethernet II header (14 bytes on the wire)."""
    dst: MacAddr
    src: MacAddr
    ethertype: int

    HEADER_LEN = ETH_HEADER_LEN

    def to_bytes(self) -> bytes:
        """Serialize to the 14-byte wire format."""
        return _packed(_ETH.pack(self.dst.to_bytes(), self.src.to_bytes(), self.ethertype))

    @classmethod
    def from_bytes(cls, data: bytes) -> "EthHeader":
        """Parse the 14-byte wire format."""
        dst, src, ethertype = _ETH.unpack_from(data)
        return cls(MacAddr.from_bytes(dst), MacAddr.from_bytes(src), ethertype)


@dataclass(slots=True)
class ArpHeader:
    """Just enough of ARP for IPv4-over-Ethernet resolution.

    A simplified 22-byte format: op, then sender and target MAC/IP.  The
    fixed htype, ptype, hlen and plen fields of real ARP are omitted.
    """

    op: int  # 1 = request, 2 = reply
    sender_mac: MacAddr
    sender_ip: IPv4Addr
    target_mac: MacAddr
    target_ip: IPv4Addr

    HEADER_LEN = _ARP.size

    OP_REQUEST = 1
    OP_REPLY = 2

    def to_bytes(self) -> bytes:
        """Serialize to the 22-byte wire format."""
        return _packed(
            _ARP.pack(
                self.op,
                self.sender_mac.to_bytes(),
                self.sender_ip.to_bytes(),
                self.target_mac.to_bytes(),
                self.target_ip.to_bytes(),
            )
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "ArpHeader":
        """Parse the 22-byte wire format."""
        op, smac, sip, tmac, tip = _ARP.unpack_from(data)
        return cls(
            op,
            MacAddr.from_bytes(smac),
            IPv4Addr.from_bytes(sip),
            MacAddr.from_bytes(tmac),
            IPv4Addr.from_bytes(tip),
        )


@dataclass(slots=True)
class IPv4Header:
    """IPv4 header (20 bytes; version/TOS/checksum carried as padding)."""
    src: IPv4Addr
    dst: IPv4Addr
    proto: int
    ident: int = 0
    #: fragment offset in BYTES (the real header stores 8-byte units;
    #: serialization converts, and offsets must be 8-byte aligned).
    frag_offset: int = 0
    more_frags: bool = False
    ttl: int = 64
    #: total length of the L3 packet (header + payload); filled by the
    #: IP layer on transmit.
    total_length: int = 0

    HEADER_LEN = 20

    def to_bytes(self) -> bytes:
        """Serialize to the 20-byte wire format (offset in 8-byte units)."""
        return self._pack(self.total_length)

    def _pack(self, total_length: int) -> bytes:
        """Serialize with ``total_length`` in place of the field's value."""
        frag_offset = self.frag_offset
        if frag_offset % 8:
            raise ValueError(f"fragment offset {frag_offset} not 8-byte aligned")
        return _packed(
            _IPV4.pack(
                total_length,
                self.ident,
                (frag_offset // 8) | (0x2000 if self.more_frags else 0),
                self.ttl,
                self.proto,
                self.src.to_bytes(),
                self.dst.to_bytes(),
            )
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Header":
        """Parse the 20-byte wire format."""
        total_length, ident, frag_word, ttl, proto, src, dst = _IPV4.unpack_from(data)
        return cls(
            IPv4Addr.from_bytes(src),
            IPv4Addr.from_bytes(dst),
            proto,
            ident,
            (frag_word & 0x1FFF) * 8,
            bool(frag_word & 0x2000),
            ttl,
            total_length,
        )


@dataclass(slots=True)
class UdpHeader:
    """UDP header (8 bytes; checksum carried as padding)."""
    sport: int
    dport: int
    length: int = 0  # UDP header + payload

    HEADER_LEN = 8

    def to_bytes(self) -> bytes:
        """Serialize to the 8-byte wire format."""
        return _packed(_UDP.pack(self.sport, self.dport, self.length))

    @classmethod
    def from_bytes(cls, data: bytes) -> "UdpHeader":
        """Parse the 8-byte wire format."""
        return cls(*_UDP.unpack_from(data))


@dataclass(slots=True)
class TcpHeader:
    """TCP header (20 bytes, no options; window is scaled, see tcp.py)."""
    sport: int
    dport: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535

    HEADER_LEN = 20

    def to_bytes(self) -> bytes:
        """Serialize to the 20-byte wire format (seq/ack mod 2^32)."""
        return _packed(
            _TCP.pack(
                self.sport,
                self.dport,
                self.seq & 0xFFFFFFFF,
                self.ack & 0xFFFFFFFF,
                0x50,  # data offset
                self.flags,
                min(self.window, 0xFFFF),
            )
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "TcpHeader":
        """Parse the 20-byte wire format."""
        sport, dport, seq, ack, _off, flags, window = _TCP.unpack_from(data)
        return cls(sport, dport, seq, ack, flags, window)


@dataclass(slots=True)
class IcmpHeader:
    """ICMP echo header (8 bytes)."""
    icmp_type: int  # 8 = echo request, 0 = echo reply
    code: int = 0
    ident: int = 0
    seq: int = 0

    HEADER_LEN = 8

    ECHO_REQUEST = 8
    ECHO_REPLY = 0

    def to_bytes(self) -> bytes:
        """Serialize to the 8-byte wire format."""
        return _packed(_ICMP.pack(self.icmp_type, self.code, self.ident, self.seq))

    @classmethod
    def from_bytes(cls, data: bytes) -> "IcmpHeader":
        """Parse the 8-byte wire format."""
        return cls(*_ICMP.unpack_from(data))


L4Header = Union[UdpHeader, TcpHeader, IcmpHeader]

_L4_BY_PROTO = {
    IPPROTO_UDP: UdpHeader,
    IPPROTO_TCP: TcpHeader,
    IPPROTO_ICMP: IcmpHeader,
}

_IP_HLEN = IPv4Header.HEADER_LEN


class Packet:
    """An in-flight network packet (sk_buff analogue)."""

    __slots__ = ("eth", "ip", "l4", "payload", "meta")

    def __init__(
        self,
        payload: bytes = b"",
        l4: Optional[L4Header] = None,
        ip: Optional[IPv4Header] = None,
        eth: Optional[EthHeader] = None,
        meta: Optional[dict[str, Any]] = None,
    ):
        self.payload = payload
        self.l4 = l4
        self.ip = ip
        self.eth = eth
        self.meta: dict[str, Any] = meta if meta is not None else {}

    # -- sizes ----------------------------------------------------------
    @property
    def l4_len(self) -> int:
        """L4 header + application payload."""
        l4 = self.l4
        hdr = l4.HEADER_LEN if l4 is not None else 0
        return hdr + len(self.payload)

    @property
    def l3_len(self) -> int:
        """Full layer-3 packet length (IP header included when present)."""
        hdr = _IP_HLEN if self.ip is not None else 0
        return hdr + self.l4_len

    @property
    def wire_len(self) -> int:
        """Frame length on an Ethernet wire."""
        return ETH_HEADER_LEN + self.l3_len

    @property
    def is_fragment(self) -> bool:
        """True for IP fragments (offset > 0 or more-fragments set)."""
        ip = self.ip
        return ip is not None and (ip.frag_offset > 0 or ip.more_frags)

    # -- serialization ----------------------------------------------------
    def l3_payload_bytes(self) -> bytes:
        """The bytes that follow the IP header on the wire."""
        if self.l4 is not None:
            return self.l4.to_bytes() + self.payload
        return self.payload

    def to_l3_bytes(self) -> bytes:
        """Serialize from the IP header down (what the XenLoop FIFO carries)."""
        return b"".join(self.to_l3_parts())

    def to_l3_parts(self) -> tuple:
        """Wire format as a tuple of buffers: packed header(s), then the
        payload by reference.

        The scatter-gather send path: parts go straight into the FIFO
        ring via :meth:`repro.core.fifo.Fifo.push` without ever being
        joined into one bytes object.  The IP header goes out with the
        true total length; a stale ``ip.total_length`` is corrected in
        the wire copy only, never in the live header.
        """
        ip = self.ip
        if ip is None:
            raise ValueError("packet has no IP header")
        WIRE_STATS.l3_cache_misses += 1
        l4 = self.l4
        payload = self.payload
        if l4 is None:
            return (ip._pack(_IP_HLEN + len(payload)), payload)
        return (ip._pack(_IP_HLEN + l4.HEADER_LEN + len(payload)), l4.to_bytes(), payload)

    @classmethod
    def from_l3_bytes(cls, data: bytes) -> "Packet":
        """Parse a layer-3 packet serialized by :meth:`to_l3_bytes`.

        The IP and L4 headers are parsed here, once, and the payload is
        sliced out.  This is the receive path's single materialization
        point: a memoryview (e.g. straight out of the FIFO ring) is
        converted to bytes exactly once, here.
        """
        if type(data) is not bytes:
            data = bytes(data)
        n = len(data)
        if n < _IP_HLEN:
            raise ValueError(f"short IP packet: {n} bytes")
        ip = IPv4Header.from_bytes(data)
        if ip.total_length != n:
            raise ValueError(f"IP length field {ip.total_length} != actual {n}")
        WIRE_STATS.lazy_l4_parses += 1
        WIRE_STATS.bytes_parsed += n - _IP_HLEN
        packet = cls.__new__(cls)
        packet.ip = ip
        packet.eth = None
        packet.meta = {}
        l4_cls = None if ip.frag_offset or ip.more_frags else _L4_BY_PROTO.get(ip.proto)
        if l4_cls is None:
            packet.l4 = None
            packet.payload = data[_IP_HLEN:]
        else:
            packet.l4 = l4_cls.from_bytes(memoryview(data)[_IP_HLEN:])
            packet.payload = data[_IP_HLEN + l4_cls.HEADER_LEN :]
        return packet

    def clone(self) -> "Packet":
        """Shallow-ish copy: headers copied, payload shared (immutable)."""
        packet = Packet.__new__(Packet)
        packet.ip = replace(self.ip) if self.ip is not None else None
        packet.eth = replace(self.eth) if self.eth is not None else None
        packet.l4 = replace(self.l4) if self.l4 is not None else None
        packet.payload = self.payload
        packet.meta = dict(self.meta)
        return packet

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        if self.eth:
            parts.append(f"eth {self.eth.src}->{self.eth.dst} t={self.eth.ethertype:#06x}")
        if self.ip:
            parts.append(f"ip {self.ip.src}->{self.ip.dst} p={self.ip.proto}")
        if self.l4:
            parts.append(type(self.l4).__name__)
        parts.append(f"{len(self.payload)}B")
        return f"<Packet {' | '.join(parts)}>"
