"""MAC / IPv4 address types, including hypothesis round-trip properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addr import BROADCAST_MAC, IPv4Addr, MacAddr


class TestMacAddr:
    def test_parse_format_roundtrip(self):
        mac = MacAddr("00:16:3e:0a:0b:0c")
        assert str(mac) == "00:16:3e:0a:0b:0c"

    def test_from_int(self):
        assert str(MacAddr(0xFFFFFFFFFFFF)) == "ff:ff:ff:ff:ff:ff"

    def test_broadcast(self):
        assert BROADCAST_MAC.is_broadcast
        assert not MacAddr(1).is_broadcast

    def test_multicast_bit(self):
        assert MacAddr("01:00:5e:00:00:01").is_multicast
        assert not MacAddr("00:16:3e:00:00:01").is_multicast

    def test_equality_and_hash(self):
        a, b = MacAddr(5), MacAddr(5)
        assert a == b and hash(a) == hash(b)
        assert a != MacAddr(6)
        assert a != 5  # not equal to raw ints

    def test_ordering(self):
        assert MacAddr(1) < MacAddr(2)

    def test_bad_string(self):
        with pytest.raises(ValueError):
            MacAddr("00:11:22:33:44")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            MacAddr(1 << 48)

    def test_bad_type(self):
        with pytest.raises(TypeError):
            MacAddr(3.14)

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_bytes_roundtrip(self, value):
        mac = MacAddr(value)
        assert MacAddr.from_bytes(mac.to_bytes()) == mac

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_string_roundtrip(self, value):
        mac = MacAddr(value)
        assert MacAddr(str(mac)) == mac


class TestIPv4Addr:
    def test_parse_format_roundtrip(self):
        ip = IPv4Addr("192.168.1.200")
        assert str(ip) == "192.168.1.200"

    def test_subnet_membership(self):
        net = IPv4Addr("10.0.0.0")
        assert IPv4Addr("10.0.0.42").in_subnet(net, 24)
        assert not IPv4Addr("10.0.1.42").in_subnet(net, 24)
        assert IPv4Addr("10.0.1.42").in_subnet(net, 16)

    def test_prefix_zero_matches_all(self):
        assert IPv4Addr("1.2.3.4").in_subnet(IPv4Addr("9.9.9.9"), 0)

    def test_prefix_32_exact(self):
        ip = IPv4Addr("10.0.0.1")
        assert ip.in_subnet(IPv4Addr("10.0.0.1"), 32)
        assert not ip.in_subnet(IPv4Addr("10.0.0.2"), 32)

    def test_bad_prefix(self):
        with pytest.raises(ValueError):
            IPv4Addr("1.1.1.1").in_subnet(IPv4Addr("1.1.1.0"), 33)

    def test_bad_strings(self):
        for bad in ("1.2.3", "256.0.0.1", "a.b.c.d"):
            with pytest.raises(ValueError):
                IPv4Addr(bad)

    def test_equality_hash_ordering(self):
        assert IPv4Addr("1.0.0.1") == IPv4Addr(0x01000001)
        assert IPv4Addr("1.0.0.1") < IPv4Addr("1.0.0.2")
        assert hash(IPv4Addr("1.0.0.1")) == hash(IPv4Addr(0x01000001))

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_bytes_roundtrip(self, value):
        ip = IPv4Addr(value)
        assert IPv4Addr.from_bytes(ip.to_bytes()) == ip

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_string_roundtrip(self, value):
        ip = IPv4Addr(value)
        assert IPv4Addr(str(ip)) == ip

    def test_mac_ip_not_equal(self):
        assert MacAddr(5) != IPv4Addr(5)


class TestFromBytesInterning:
    @pytest.mark.parametrize(
        "cls, wire",
        [(IPv4Addr, b"\x0a\x00\x00\x07"), (MacAddr, b"\x00\x16\x3e\x00\x00\x07")],
    )
    def test_same_bytes_same_instance(self, cls, wire):
        first = cls.from_bytes(wire)
        assert cls.from_bytes(bytes(wire)) is first
        assert cls.from_bytes(memoryview(wire)) is first
        # Interning changes identity only: equality and hashing still go
        # by value, so a separately built address is interchangeable.
        built = cls(int.from_bytes(wire, "big"))
        assert built is not first
        assert built == first and hash(built) == hash(first)

    def test_bad_length_still_rejected(self):
        with pytest.raises(ValueError):
            IPv4Addr.from_bytes(b"\x01\x02\x03")
        with pytest.raises(ValueError):
            MacAddr.from_bytes(b"\x01\x02\x03\x04\x05")

    def test_table_is_bounded(self, monkeypatch):
        from repro.net import addr

        monkeypatch.setattr(addr, "_IPV4_INTERN", {})
        monkeypatch.setattr(addr, "_INTERN_MAX", 8)
        for i in range(20):
            assert IPv4Addr.from_bytes(i.to_bytes(4, "big")).value == i
        assert len(addr._IPV4_INTERN) == 8
        # Past the bound, parsing still works; it just is not interned.
        assert IPv4Addr.from_bytes((19).to_bytes(4, "big")) == IPv4Addr(19)
