"""Packets and protocol headers -- the simulation's ``struct sk_buff``.

Headers are small dataclasses with real binary serialization
(``to_bytes`` / ``from_bytes``); the XenLoop FIFO carries genuine
serialized layer-3 packets, so anything that goes through the channel
is round-tripped through its wire format.  This is what lets the test
suite assert byte-exact delivery through the shared-memory path.

Wire-format caching (see docs/architecture.md, "Packet data path"):

* every header keeps its packed bytes alongside a version counter that
  a custom ``__setattr__`` bumps on field mutation, so ``to_bytes`` is
  a struct.pack at most once per header *state*;
* a :class:`Packet` caches its full ``to_l3_bytes`` output, keyed on
  the header version counters, so a packet forwarded unchanged through
  channel -> FIFO -> receive serializes at most once;
* ``from_l3_bytes`` parses only the IP header eagerly and keeps the
  raw L3 bytes; the L4 header and payload materialize on first
  attribute access.  Pure-forwarding hops that only look at addresses
  and lengths never parse (or re-pack) anything above L3.

The caches assume ``payload`` is immutable ``bytes``: replacing any of
``ip``/``l4``/``payload`` goes through a property setter that
invalidates the cache, and header field assignment bumps the header's
version counter, but in-place mutation of a ``bytearray`` payload would
be invisible.  All producers in this codebase use ``bytes``.

Conventions:

* A packet with ``ip.frag_offset > 0`` or ``ip.more_frags`` is an IP
  fragment: ``l4 is None`` and ``payload`` is the raw slice of the
  original layer-3 payload (the first fragment's slice starts with the
  serialized L4 header, as on a real wire).
* ``meta`` is simulation-side bookkeeping (timestamps, path taken) and
  is never serialized.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
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
#: zero-copy data path is observable; ``reset()`` before a measured run.
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
    "pool_hits",
    "pool_misses",
)


#: per-class default field values for :meth:`_CachedHeader.fresh`,
#: materialized lazily on first use.
_HEADER_DEFAULTS: dict[type, dict] = {}


class _CachedHeader:
    """Mixin for wire headers: version-counted fields + packed cache.

    Field assignment (including the dataclass ``__init__``) goes through
    ``__setattr__``, which bumps ``_v`` and drops ``_packed``; subclasses'
    ``to_bytes`` store the packed bytes back via ``__dict__`` so the
    cache fill itself does not count as a mutation.  ``_v``/``_packed``
    live only in the instance dict -- they are not dataclass fields, so
    ``repr``/``eq``/``replace`` are unaffected.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        d = self.__dict__
        d[name] = value
        d["_packed"] = None
        d["_v"] = d.get("_v", 0) + 1

    def _cached(self) -> Optional[bytes]:
        packed = self.__dict__.get("_packed")
        if packed is not None:
            WIRE_STATS.header_cache_hits += 1
        return packed

    def _fill(self, packed: bytes) -> bytes:
        self.__dict__["_packed"] = packed
        WIRE_STATS.header_cache_misses += 1
        WIRE_STATS.bytes_packed += len(packed)
        return packed

    @property
    def wire_version(self) -> int:
        """Monotonic counter bumped on every field assignment."""
        return self.__dict__.get("_v", 0)

    @classmethod
    def fresh(cls, **fields):
        """Construct a header bypassing the per-field ``__setattr__``.

        Hot-path allocator: equivalent to calling the dataclass
        ``__init__`` (same defaults, no ``__post_init__`` on any of
        these classes) but fills the instance dict with two bulk
        updates instead of one version-bumping ``__setattr__`` per
        field.  Required fields missing from ``fields`` surface as
        ``AttributeError`` on first access rather than ``TypeError``
        here, so this is for internal call sites only.
        """
        base = _HEADER_DEFAULTS.get(cls)
        if base is None:
            base = _HEADER_DEFAULTS[cls] = {
                f.name: f.default
                for f in dataclasses.fields(cls)
                if f.default is not dataclasses.MISSING
            }
        hdr = cls.__new__(cls)
        d = hdr.__dict__
        d.update(base)
        d.update(fields)
        d["_packed"] = None
        d["_v"] = 1
        return hdr

    def replaced(self, **changes):
        """Copy with fields changed -- a fast ``dataclasses.replace``.

        Equivalent for these headers (plain field dataclasses, no
        ``__post_init__``) but copies the instance dict wholesale instead
        of re-running ``__init__`` through ``__setattr__`` field by
        field.  Sits on the fragmentation/reassembly path.  The copy
        starts with a fresh version counter and no packed cache.
        """
        clone = self.__class__.__new__(self.__class__)
        d = clone.__dict__
        d.update(self.__dict__)
        if changes:
            d.update(changes)
            d["_packed"] = None
            d["_v"] = 1
        # else: identical fields -- the inherited packed cache stays valid.
        return clone


@dataclass
class EthHeader(_CachedHeader):
    """Ethernet II header (14 bytes on the wire)."""
    dst: MacAddr
    src: MacAddr
    ethertype: int

    HEADER_LEN = ETH_HEADER_LEN
    _FMT = "!6s6sH"

    def to_bytes(self) -> bytes:
        """Serialize to the 14-byte wire format."""
        packed = self._cached()
        if packed is not None:
            return packed
        return self._fill(
            struct.pack(self._FMT, self.dst.to_bytes(), self.src.to_bytes(), self.ethertype)
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "EthHeader":
        """Parse the 14-byte wire format."""
        dst, src, ethertype = struct.unpack_from(cls._FMT, data)
        return cls.fresh(
            dst=MacAddr.from_bytes(dst), src=MacAddr.from_bytes(src), ethertype=ethertype
        )


@dataclass
class ArpHeader(_CachedHeader):
    """Just enough of ARP for IPv4-over-Ethernet resolution."""

    op: int  # 1 = request, 2 = reply
    sender_mac: MacAddr
    sender_ip: IPv4Addr
    target_mac: MacAddr
    target_ip: IPv4Addr

    HEADER_LEN = 28
    _FMT = "!H6s4s6s4s"

    OP_REQUEST = 1
    OP_REPLY = 2

    def to_bytes(self) -> bytes:
        """Serialize to the 28-byte wire format."""
        packed = self._cached()
        if packed is not None:
            return packed
        return self._fill(
            struct.pack(
                self._FMT,
                self.op,
                self.sender_mac.to_bytes(),
                self.sender_ip.to_bytes(),
                self.target_mac.to_bytes(),
                self.target_ip.to_bytes(),
            )
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "ArpHeader":
        """Parse the 28-byte wire format."""
        op, smac, sip, tmac, tip = struct.unpack_from(cls._FMT, data)
        return cls(
            op,
            MacAddr.from_bytes(smac),
            IPv4Addr.from_bytes(sip),
            MacAddr.from_bytes(tmac),
            IPv4Addr.from_bytes(tip),
        )


@dataclass
class IPv4Header(_CachedHeader):
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
    # version/IHL/TOS and checksum are carried as padding (4x total with
    # the two trailing bytes): 2+2+2+1+1+4+4+4 = 20 bytes.
    _FMT = "!HHHBB4s4s4x"

    def to_bytes(self) -> bytes:
        """Serialize to the 20-byte wire format (offset in 8-byte units)."""
        packed = self._cached()
        if packed is not None:
            return packed
        if self.frag_offset % 8:
            raise ValueError(f"fragment offset {self.frag_offset} not 8-byte aligned")
        frag_word = (self.frag_offset // 8) | (0x2000 if self.more_frags else 0)
        return self._fill(
            struct.pack(
                self._FMT,
                self.total_length,
                self.ident,
                frag_word,
                self.ttl,
                self.proto,
                self.src.to_bytes(),
                self.dst.to_bytes(),
            )
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Header":
        """Parse the 20-byte wire format."""
        total_length, ident, frag_word, ttl, proto, src, dst = struct.unpack_from(cls._FMT, data)
        return cls.fresh(
            src=IPv4Addr.from_bytes(src),
            dst=IPv4Addr.from_bytes(dst),
            proto=proto,
            ident=ident,
            frag_offset=(frag_word & 0x1FFF) * 8,
            more_frags=bool(frag_word & 0x2000),
            ttl=ttl,
            total_length=total_length,
        )


@dataclass
class UdpHeader(_CachedHeader):
    """UDP header (8 bytes; checksum carried as padding)."""
    sport: int
    dport: int
    length: int = 0  # UDP header + payload

    HEADER_LEN = 8
    _FMT = "!HHH2x"

    def to_bytes(self) -> bytes:
        """Serialize to the 8-byte wire format."""
        packed = self._cached()
        if packed is not None:
            return packed
        return self._fill(struct.pack(self._FMT, self.sport, self.dport, self.length))

    @classmethod
    def from_bytes(cls, data: bytes) -> "UdpHeader":
        """Parse the 8-byte wire format."""
        sport, dport, length = struct.unpack_from(cls._FMT, data)
        return cls.fresh(sport=sport, dport=dport, length=length)


@dataclass
class TcpHeader(_CachedHeader):
    """TCP header (20 bytes, no options; window is scaled, see tcp.py)."""
    sport: int
    dport: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535

    HEADER_LEN = 20
    _FMT = "!HHIIBBH4x"

    def to_bytes(self) -> bytes:
        """Serialize to the 20-byte wire format (seq/ack mod 2^32)."""
        packed = self._cached()
        if packed is not None:
            return packed
        return self._fill(
            struct.pack(
                self._FMT,
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
        sport, dport, seq, ack, _off, flags, window = struct.unpack_from(cls._FMT, data)
        return cls.fresh(sport=sport, dport=dport, seq=seq, ack=ack, flags=flags, window=window)


@dataclass
class IcmpHeader(_CachedHeader):
    """ICMP echo header (8 bytes)."""
    icmp_type: int  # 8 = echo request, 0 = echo reply
    code: int = 0
    ident: int = 0
    seq: int = 0

    HEADER_LEN = 8
    _FMT = "!BBxxHH"

    ECHO_REQUEST = 8
    ECHO_REPLY = 0

    def to_bytes(self) -> bytes:
        """Serialize to the 8-byte wire format."""
        packed = self._cached()
        if packed is not None:
            return packed
        return self._fill(struct.pack(self._FMT, self.icmp_type, self.code, self.ident, self.seq))

    @classmethod
    def from_bytes(cls, data: bytes) -> "IcmpHeader":
        """Parse the 8-byte wire format."""
        icmp_type, code, ident, seq = struct.unpack_from(cls._FMT, data)
        return cls(icmp_type, code, ident, seq)


L4Header = Union[UdpHeader, TcpHeader, IcmpHeader]

_L4_BY_PROTO = {
    IPPROTO_UDP: UdpHeader,
    IPPROTO_TCP: TcpHeader,
    IPPROTO_ICMP: IcmpHeader,
}

_IP_HLEN = IPv4Header.HEADER_LEN

#: sentinels for the l4 slot of the serialization-cache key.
_NO_L4 = -1  # cached with l4 is None (fragment / unknown proto)
_LAZY_BODY = -2  # cached with the body still unparsed (raw view held)


class Packet:
    """An in-flight network packet (sk_buff analogue).

    ``ip``/``l4``/``payload`` are properties: the setters invalidate the
    cached wire format, and the ``l4``/``payload`` getters materialize a
    lazily-parsed body (see :meth:`from_l3_bytes`) on first access.
    """

    __slots__ = ("eth", "meta", "_ip", "_l4", "_payload", "_raw", "_l3c", "_l3ip_v", "_l3l4_v")

    def __init__(
        self,
        payload: bytes = b"",
        l4: Optional[L4Header] = None,
        ip: Optional[IPv4Header] = None,
        eth: Optional[EthHeader] = None,
        meta: Optional[dict[str, Any]] = None,
    ):
        self._payload = payload
        self._l4 = l4
        self._ip = ip
        self.eth = eth
        self.meta: dict[str, Any] = meta if meta is not None else {}
        self._raw = None
        self._l3c = None
        self._l3ip_v = _NO_L4
        self._l3l4_v = _NO_L4

    # -- cached/lazy field access --------------------------------------
    @property
    def ip(self) -> Optional[IPv4Header]:
        """The IPv4 header (never lazy; parsed eagerly on receive)."""
        return self._ip

    @ip.setter
    def ip(self, value: Optional[IPv4Header]) -> None:
        self._ip = value
        self._l3c = None

    @property
    def l4(self) -> Optional[L4Header]:
        """The transport header; triggers the lazy body parse."""
        if self._raw is not None:
            self._parse_body()
        return self._l4

    @l4.setter
    def l4(self, value: Optional[L4Header]) -> None:
        if self._raw is not None:
            self._parse_body()
        self._l4 = value
        self._l3c = None

    @property
    def payload(self) -> bytes:
        """The application payload; triggers the lazy body parse."""
        if self._raw is not None:
            self._parse_body()
        return self._payload

    @payload.setter
    def payload(self, value: bytes) -> None:
        if self._raw is not None:
            self._parse_body()
        self._payload = value
        self._l3c = None

    def _parse_body(self) -> None:
        """Materialize l4/payload from the raw L3 bytes (once)."""
        raw = self._raw
        self._raw = None
        ip = self._ip
        WIRE_STATS.lazy_l4_parses += 1
        WIRE_STATS.bytes_parsed += len(raw) - _IP_HLEN
        if ip.frag_offset > 0 or ip.more_frags:
            self._payload = raw[_IP_HLEN:]
            l4_v = _NO_L4
        else:
            l4_cls = _L4_BY_PROTO.get(ip.proto)
            if l4_cls is None:
                self._payload = raw[_IP_HLEN:]
                l4_v = _NO_L4
            else:
                l4 = l4_cls.from_bytes(memoryview(raw)[_IP_HLEN:])
                self._l4 = l4
                self._payload = raw[_IP_HLEN + l4_cls.HEADER_LEN :]
                l4_v = l4.__dict__["_v"]
        # A read-only parse leaves the cached wire format valid: re-key
        # it from the lazy sentinel to the freshly parsed header state.
        if self._l3l4_v == _LAZY_BODY:
            self._l3l4_v = l4_v

    def _l3_cache_ok(self) -> bool:
        if self._l3c is None:
            return False
        ip = self._ip
        if ip is None or ip.__dict__["_v"] != self._l3ip_v:
            return False
        l4_v = self._l3l4_v
        if l4_v >= 0:
            # Replacing l4 clears the cache, so only in-place header
            # mutation can invalidate here -- caught by the version.
            return self._l4.__dict__["_v"] == l4_v
        return True  # _LAZY_BODY (unparsed) or _NO_L4 (l4 is None)

    # -- sizes ----------------------------------------------------------
    @property
    def l4_len(self) -> int:
        """L4 header + application payload (no body parse needed)."""
        raw = self._raw
        if raw is not None:
            return len(raw) - _IP_HLEN
        l4 = self._l4
        hdr = l4.HEADER_LEN if l4 is not None else 0
        return hdr + len(self._payload)

    @property
    def l3_len(self) -> int:
        """Full layer-3 packet length (IP header included when present)."""
        hdr = _IP_HLEN if self._ip is not None else 0
        return hdr + self.l4_len

    @property
    def wire_len(self) -> int:
        """Frame length on an Ethernet wire."""
        return ETH_HEADER_LEN + self.l3_len

    @property
    def is_fragment(self) -> bool:
        """True for IP fragments (offset > 0 or more-fragments set)."""
        ip = self._ip
        return ip is not None and (ip.frag_offset > 0 or ip.more_frags)

    # -- serialization ----------------------------------------------------
    def l3_payload_bytes(self) -> bytes:
        """The bytes that follow the IP header on the wire."""
        raw = self._raw
        if raw is not None:
            return raw[_IP_HLEN:]
        if self._l4 is not None:
            return self._l4.to_bytes() + self._payload
        return self._payload

    def _ip_header_bytes(self) -> tuple[bytes, int]:
        """(packed IP header with corrected total_length, body length)."""
        ip = self._ip
        raw = self._raw
        if raw is not None:
            body_len = len(raw) - _IP_HLEN
        else:
            l4 = self._l4
            body_len = (l4.HEADER_LEN if l4 is not None else 0) + len(self._payload)
        total = _IP_HLEN + body_len
        if ip.total_length == total:
            return ip.to_bytes(), body_len
        # Stale in-memory length: serialize a corrected copy, leaving
        # the live header untouched (matches the historical behaviour).
        return ip.replaced(total_length=total).to_bytes(), body_len

    def to_l3_bytes(self) -> bytes:
        """Serialize from the IP header down (what the XenLoop FIFO carries).

        The result is cached on the packet, keyed on the header version
        counters: an unchanged packet serializes at most once.
        """
        if self._l3_cache_ok():
            WIRE_STATS.l3_cache_hits += 1
            return self._l3c
        ip = self._ip
        if ip is None:
            raise ValueError("packet has no IP header")
        WIRE_STATS.l3_cache_misses += 1
        hdr_bytes, _body_len = self._ip_header_bytes()
        raw = self._raw
        if raw is not None:
            data = hdr_bytes + raw[_IP_HLEN:]
            l4_v = _LAZY_BODY
        else:
            l4 = self._l4
            if l4 is not None:
                data = hdr_bytes + l4.to_bytes() + self._payload
                l4_v = l4.__dict__["_v"]
            else:
                data = hdr_bytes + self._payload
                l4_v = _NO_L4
        self._l3c = data
        self._l3ip_v = ip.__dict__["_v"]
        self._l3l4_v = l4_v
        return data

    def to_l3_parts(self) -> tuple:
        """Wire format as a tuple of buffers (header(s), payload views).

        The scatter-gather send path: parts go straight into the FIFO
        ring via :meth:`repro.core.fifo.Fifo.push_vec` without ever being
        joined into one bytes object.  Returns the cached joined bytes as
        a single part when the cache is valid; the miss path packs only
        the headers (payload is passed through by reference) and does
        NOT build the joined form.
        """
        if self._l3_cache_ok():
            WIRE_STATS.l3_cache_hits += 1
            return (self._l3c,)
        if self._ip is None:
            raise ValueError("packet has no IP header")
        WIRE_STATS.l3_cache_misses += 1
        hdr_bytes, _body_len = self._ip_header_bytes()
        raw = self._raw
        if raw is not None:
            return (hdr_bytes, memoryview(raw)[_IP_HLEN:])
        l4 = self._l4
        if l4 is not None:
            return (hdr_bytes, l4.to_bytes(), self._payload)
        return (hdr_bytes, self._payload)

    @classmethod
    def from_l3_bytes(cls, data: bytes) -> "Packet":
        """Parse a layer-3 packet serialized by :meth:`to_l3_bytes`.

        Only the IP header is parsed here (length validation included);
        the L4 header and payload materialize on first access.  The
        input bytes seed the serialization cache, so receive-and-forward
        never re-packs.  This is the receive path's single
        materialization point: a memoryview (e.g. straight out of the
        FIFO ring) is converted to bytes exactly once, here.
        """
        if type(data) is not bytes:
            data = bytes(data)
        if len(data) < _IP_HLEN:
            raise ValueError(f"short IP packet: {len(data)} bytes")
        ip = IPv4Header.from_bytes(data)
        if ip.total_length != len(data):
            raise ValueError(f"IP length field {ip.total_length} != actual {len(data)}")
        packet = cls.__new__(cls)
        packet._payload = b""
        packet._l4 = None
        packet._ip = ip
        packet.eth = None
        packet.meta = {}
        packet._raw = data
        packet._l3c = data
        packet._l3ip_v = ip.__dict__["_v"]
        packet._l3l4_v = _LAZY_BODY
        return packet

    def clone(self) -> "Packet":
        """Shallow-ish copy: headers copied, payload shared (immutable).

        A lazily-parsed body stays lazy in the clone (the raw bytes are
        shared), and a still-valid serialization cache carries over,
        re-keyed to the fresh header copies' version counters.
        """
        cache_ok = self._l3_cache_ok()
        packet = Packet.__new__(Packet)
        packet._ip = self._ip.replaced() if self._ip is not None else None
        packet.eth = self.eth.replaced() if self.eth is not None else None
        packet.meta = dict(self.meta)
        raw = self._raw
        packet._raw = raw
        if raw is not None:
            packet._l4 = None
            packet._payload = b""
        else:
            packet._l4 = self._l4.replaced() if self._l4 is not None else None
            packet._payload = self._payload
        if cache_ok:
            packet._l3c = self._l3c
            packet._l3ip_v = packet._ip.__dict__["_v"]
            if raw is not None:
                packet._l3l4_v = _LAZY_BODY
            elif packet._l4 is not None:
                packet._l3l4_v = packet._l4.__dict__["_v"]
            else:
                packet._l3l4_v = _NO_L4
        else:
            packet._l3c = None
            packet._l3ip_v = _NO_L4
            packet._l3l4_v = _NO_L4
        return packet

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        if self.eth:
            parts.append(f"eth {self.eth.src}->{self.eth.dst} t={self.eth.ethertype:#06x}")
        if self._ip:
            parts.append(f"ip {self._ip.src}->{self._ip.dst} p={self._ip.proto}")
        if self._raw is not None:
            parts.append(f"lazy {len(self._raw) - _IP_HLEN}B")
        else:
            if self._l4:
                parts.append(type(self._l4).__name__)
            parts.append(f"{len(self._payload)}B")
        return f"<Packet {' | '.join(parts)}>"
