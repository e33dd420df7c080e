"""Header serialization and packet round-trips (what the FIFO carries)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addr import IPv4Addr, MacAddr
from repro.net.ethernet import IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP
from repro.net.packet import (
    ArpHeader,
    EthHeader,
    IPv4Header,
    IcmpHeader,
    Packet,
    TcpHeader,
    UdpHeader,
    TCP_ACK,
    TCP_SYN,
)


class TestHeaderSerialization:
    def test_eth_roundtrip(self):
        hdr = EthHeader(MacAddr(1), MacAddr(2), 0x0800)
        back = EthHeader.from_bytes(hdr.to_bytes())
        assert back == hdr
        assert len(hdr.to_bytes()) == EthHeader.HEADER_LEN

    def test_arp_roundtrip(self):
        hdr = ArpHeader(1, MacAddr(3), IPv4Addr("10.0.0.1"), MacAddr(0), IPv4Addr("10.0.0.2"))
        assert ArpHeader.from_bytes(hdr.to_bytes()) == hdr
        assert len(hdr.to_bytes()) == ArpHeader.HEADER_LEN == 22

    def test_ipv4_roundtrip(self):
        hdr = IPv4Header(
            src=IPv4Addr("10.0.0.1"),
            dst=IPv4Addr("10.0.0.2"),
            proto=IPPROTO_UDP,
            ident=77,
            frag_offset=1480,
            more_frags=True,
            total_length=1500,
        )
        back = IPv4Header.from_bytes(hdr.to_bytes())
        assert back == hdr
        assert len(hdr.to_bytes()) == IPv4Header.HEADER_LEN == 20

    def test_ipv4_unaligned_fragment_rejected(self):
        hdr = IPv4Header(IPv4Addr(1), IPv4Addr(2), IPPROTO_UDP, frag_offset=5)
        with pytest.raises(ValueError):
            hdr.to_bytes()

    def test_udp_roundtrip(self):
        hdr = UdpHeader(1234, 80, 108)
        assert UdpHeader.from_bytes(hdr.to_bytes()) == hdr
        assert len(hdr.to_bytes()) == UdpHeader.HEADER_LEN

    def test_tcp_roundtrip(self):
        hdr = TcpHeader(40000, 80, seq=12345, ack=999, flags=TCP_SYN | TCP_ACK, window=5000)
        back = TcpHeader.from_bytes(hdr.to_bytes())
        assert back == hdr
        assert len(hdr.to_bytes()) == TcpHeader.HEADER_LEN == 20

    def test_icmp_roundtrip(self):
        hdr = IcmpHeader(IcmpHeader.ECHO_REQUEST, 0, 42, 7)
        assert IcmpHeader.from_bytes(hdr.to_bytes()) == hdr
        assert len(hdr.to_bytes()) == IcmpHeader.HEADER_LEN == 8


class TestPacketSizes:
    def test_lengths_compose(self):
        pkt = Packet(
            payload=b"x" * 100,
            l4=UdpHeader(1, 2, 108),
            ip=IPv4Header(IPv4Addr(1), IPv4Addr(2), IPPROTO_UDP),
        )
        assert pkt.l4_len == 108
        assert pkt.l3_len == 128
        assert pkt.wire_len == 142

    def test_fragment_flag(self):
        ip = IPv4Header(IPv4Addr(1), IPv4Addr(2), IPPROTO_UDP, more_frags=True)
        assert Packet(ip=ip).is_fragment
        ip2 = IPv4Header(IPv4Addr(1), IPv4Addr(2), IPPROTO_UDP, frag_offset=8)
        assert Packet(ip=ip2).is_fragment
        ip3 = IPv4Header(IPv4Addr(1), IPv4Addr(2), IPPROTO_UDP)
        assert not Packet(ip=ip3).is_fragment


class TestL3Roundtrip:
    def _mk(self, l4, proto, payload):
        return Packet(
            payload=payload,
            l4=l4,
            ip=IPv4Header(IPv4Addr("10.0.0.1"), IPv4Addr("10.0.0.2"), proto, ident=5),
        )

    def test_udp_packet_roundtrip(self):
        pkt = self._mk(UdpHeader(1111, 2222, 8 + 33), IPPROTO_UDP, b"a" * 33)
        back = Packet.from_l3_bytes(pkt.to_l3_bytes())
        assert back.payload == pkt.payload
        assert back.l4 == pkt.l4
        assert back.ip.src == pkt.ip.src and back.ip.dst == pkt.ip.dst

    def test_tcp_packet_roundtrip(self):
        pkt = self._mk(TcpHeader(1, 2, seq=9, ack=8, flags=TCP_ACK), IPPROTO_TCP, b"payload")
        back = Packet.from_l3_bytes(pkt.to_l3_bytes())
        assert back.l4 == pkt.l4
        assert back.payload == b"payload"

    def test_icmp_packet_roundtrip(self):
        pkt = self._mk(IcmpHeader(8, 0, 1, 2), IPPROTO_ICMP, bytes(56))
        back = Packet.from_l3_bytes(pkt.to_l3_bytes())
        assert back.l4 == pkt.l4
        assert len(back.payload) == 56

    def test_fragment_not_parsed_as_l4(self):
        ip = IPv4Header(IPv4Addr(1), IPv4Addr(2), IPPROTO_UDP, frag_offset=8, ident=1)
        frag = Packet(payload=b"middle-of-datagram", ip=ip)
        frag.ip.total_length = frag.l3_len
        back = Packet.from_l3_bytes(frag.to_l3_bytes())
        assert back.l4 is None
        assert back.payload == b"middle-of-datagram"

    def test_length_mismatch_rejected(self):
        pkt = self._mk(UdpHeader(1, 2, 10), IPPROTO_UDP, b"xy")
        data = pkt.to_l3_bytes()
        with pytest.raises(ValueError):
            Packet.from_l3_bytes(data[:-1])

    def test_short_packet_rejected(self):
        with pytest.raises(ValueError):
            Packet.from_l3_bytes(b"short")

    def test_no_ip_header_rejected(self):
        with pytest.raises(ValueError):
            Packet(payload=b"x").to_l3_bytes()

    @given(st.binary(min_size=0, max_size=2000))
    def test_udp_payload_roundtrip_property(self, payload):
        pkt = self._mk(
            UdpHeader(1, 2, UdpHeader.HEADER_LEN + len(payload)), IPPROTO_UDP, payload
        )
        back = Packet.from_l3_bytes(pkt.to_l3_bytes())
        assert back.payload == payload

    def test_clone_is_independent(self):
        pkt = self._mk(UdpHeader(1, 2, 10), IPPROTO_UDP, b"zz")
        pkt.meta["via"] = "original"
        dup = pkt.clone()
        dup.ip.ident = 99
        dup.meta["via"] = "copy"
        assert pkt.ip.ident == 5
        assert pkt.meta["via"] == "original"
