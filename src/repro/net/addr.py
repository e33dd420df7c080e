"""MAC and IPv4 address types.

Both are immutable, hashable wrappers over integers with the usual
string formats.  Keeping them as real types (instead of raw strings)
catches a whole class of "passed an IP where a MAC was expected" bugs
in the bridge/ARP/XenLoop mapping-table code.
"""

from __future__ import annotations

from functools import total_ordering

__all__ = ["IPv4Addr", "MacAddr", "BROADCAST_MAC", "netmask"]

#: Most wire-parsed addresses the intern tables hold per type.  Beyond
#: it ``from_bytes`` still works, it just builds a fresh instance.
_INTERN_MAX = 4096

_MAC_INTERN: dict = {}
_IPV4_INTERN: dict = {}


def netmask(prefix_len: int) -> int:
    """The 32-bit mask of an IPv4 ``/prefix_len`` network."""
    if not 0 <= prefix_len <= 32:
        raise ValueError(f"bad prefix length {prefix_len}")
    return ((1 << prefix_len) - 1) << (32 - prefix_len)


@total_ordering
class MacAddr:
    """48-bit Ethernet MAC address."""

    __slots__ = ("value",)

    def __init__(self, value: "int | str | MacAddr"):
        if isinstance(value, MacAddr):
            self.value = value.value
        elif isinstance(value, str):
            parts = value.split(":")
            if len(parts) != 6:
                raise ValueError(f"bad MAC string: {value!r}")
            self.value = int("".join(f"{int(p, 16):02x}" for p in parts), 16)
        elif isinstance(value, int):
            if not 0 <= value < (1 << 48):
                raise ValueError(f"MAC out of range: {value:#x}")
            self.value = value
        else:
            raise TypeError(f"cannot build MAC from {type(value).__name__}")

    @property
    def is_broadcast(self) -> bool:
        """True for ff:ff:ff:ff:ff:ff."""
        return self.value == (1 << 48) - 1

    @property
    def is_multicast(self) -> bool:
        """True when the I/G bit of the first octet is set."""
        return bool((self.value >> 40) & 0x01)

    def to_bytes(self) -> bytes:
        """6-byte big-endian wire representation."""
        return self.value.to_bytes(6, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "MacAddr":
        """Parse 6 wire bytes into a MacAddr (interned by those bytes)."""
        if type(data) is not bytes:
            data = bytes(data)
        addr = _MAC_INTERN.get(data)
        if addr is None:
            if len(data) != 6:
                raise ValueError(f"MAC needs 6 bytes, got {len(data)}")
            addr = cls(int.from_bytes(data, "big"))
            if len(_MAC_INTERN) < _INTERN_MAX:
                _MAC_INTERN[data] = addr
        return addr

    def __eq__(self, other) -> bool:
        return isinstance(other, MacAddr) and self.value == other.value

    def __lt__(self, other: "MacAddr") -> bool:
        if not isinstance(other, MacAddr):
            return NotImplemented
        return self.value < other.value

    def __hash__(self) -> int:
        return hash(("mac", self.value))

    def __str__(self) -> str:
        raw = f"{self.value:012x}"
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MacAddr('{self}')"


BROADCAST_MAC = MacAddr((1 << 48) - 1)


@total_ordering
class IPv4Addr:
    """32-bit IPv4 address."""

    __slots__ = ("value",)

    def __init__(self, value: "int | str | IPv4Addr"):
        if isinstance(value, IPv4Addr):
            self.value = value.value
        elif isinstance(value, str):
            parts = value.split(".")
            if len(parts) != 4:
                raise ValueError(f"bad IPv4 string: {value!r}")
            octets = [int(p) for p in parts]
            if any(not 0 <= o <= 255 for o in octets):
                raise ValueError(f"bad IPv4 string: {value!r}")
            self.value = (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]
        elif isinstance(value, int):
            if not 0 <= value < (1 << 32):
                raise ValueError(f"IPv4 out of range: {value:#x}")
            self.value = value
        else:
            raise TypeError(f"cannot build IPv4 from {type(value).__name__}")

    def in_subnet(self, network: "IPv4Addr", prefix_len: int) -> bool:
        """Whether this address falls inside ``network/prefix_len``."""
        mask = netmask(prefix_len)
        return (self.value & mask) == (network.value & mask)

    def to_bytes(self) -> bytes:
        """4-byte big-endian wire representation."""
        return self.value.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Addr":
        """Parse 4 wire bytes into an IPv4Addr (interned by those bytes)."""
        if type(data) is not bytes:
            data = bytes(data)
        addr = _IPV4_INTERN.get(data)
        if addr is None:
            if len(data) != 4:
                raise ValueError(f"IPv4 needs 4 bytes, got {len(data)}")
            addr = cls(int.from_bytes(data, "big"))
            if len(_IPV4_INTERN) < _INTERN_MAX:
                _IPV4_INTERN[data] = addr
        return addr

    @classmethod
    def interned(cls, text: str) -> "IPv4Addr":
        """Parse dotted-quad ``text`` into the instance ``from_bytes``
        hands out for the same address, so dict lookups keyed by a
        configured address match parsed packets by identity."""
        return cls.from_bytes(cls(text).to_bytes())

    def __eq__(self, other) -> bool:
        return isinstance(other, IPv4Addr) and self.value == other.value

    def __lt__(self, other: "IPv4Addr") -> bool:
        if not isinstance(other, IPv4Addr):
            return NotImplemented
        return self.value < other.value

    def __hash__(self) -> int:
        return hash(("ipv4", self.value))

    def __str__(self) -> str:
        v = self.value
        return f"{v >> 24}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"IPv4Addr('{self}')"
