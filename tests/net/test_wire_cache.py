"""The packet data path: byte-exact round trips, mutation, counters.

Headers pack their current fields on every ``to_bytes`` call and
``Packet.from_l3_bytes`` parses the IP and L4 headers once on receive.
Whatever a packet goes through, serializing it and parsing the result
must give back the same headers and payload, and a field changed after
one serialization must show up in the next.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import report, trace
from repro.net.addr import IPv4Addr, MacAddr
from repro.net.ethernet import IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP
from repro.net.packet import (
    ArpHeader,
    EthHeader,
    IcmpHeader,
    IPv4Header,
    Packet,
    TcpHeader,
    UdpHeader,
    WIRE_STATS,
)
from repro.sim.engine import Simulator


def make_udp_packet(payload=b"x" * 64, sport=1234, dport=5678, ident=7):
    l4 = UdpHeader(sport, dport, UdpHeader.HEADER_LEN + len(payload))
    ip = IPv4Header(
        src=IPv4Addr("10.0.0.1"),
        dst=IPv4Addr("10.0.0.2"),
        proto=IPPROTO_UDP,
        ident=ident,
    )
    packet = Packet(payload=payload, l4=l4, ip=ip)
    packet.ip.total_length = packet.l3_len
    return packet


def make_fragment(payload=b"f" * 48, frag_offset=8, more=True, ident=9):
    ip = IPv4Header(
        src=IPv4Addr("10.0.0.1"),
        dst=IPv4Addr("10.0.0.2"),
        proto=IPPROTO_UDP,
        ident=ident,
        frag_offset=frag_offset,
        more_frags=more,
    )
    packet = Packet(payload=payload, ip=ip)
    packet.ip.total_length = packet.l3_len
    return packet


def make_tcp_segment(payload, seq=1000):
    # A GSO super-segment is just a TCP packet whose payload exceeds the
    # MTU; the wire format is identical, only the length differs.
    l4 = TcpHeader(40000, 80, seq=seq, ack=55, window=8192)
    ip = IPv4Header(
        src=IPv4Addr("10.0.0.3"),
        dst=IPv4Addr("10.0.0.4"),
        proto=IPPROTO_TCP,
        ident=3,
    )
    packet = Packet(payload=payload, l4=l4, ip=ip)
    packet.ip.total_length = packet.l3_len
    return packet


class TestLazyEagerEquivalence:
    def test_udp_roundtrip_byte_exact(self):
        eager = make_udp_packet()
        wire = eager.to_l3_bytes()
        parsed = Packet.from_l3_bytes(wire)
        assert parsed.to_l3_bytes() == wire
        assert parsed.l4.dport == 5678
        assert parsed.payload == b"x" * 64
        assert parsed.to_l3_bytes() == wire

    def test_fragment_roundtrip_no_l4(self):
        frag = make_fragment()
        wire = frag.to_l3_bytes()
        parsed = Packet.from_l3_bytes(wire)
        # Fragments never grow a transport header on parse.
        assert parsed.l4 is None
        assert parsed.payload == b"f" * 48
        assert parsed.to_l3_bytes() == wire

    def test_gso_segment_roundtrip(self):
        payload = bytes(range(256)) * 24  # 6 KB > MTU
        seg = make_tcp_segment(payload)
        wire = seg.to_l3_bytes()
        parsed = Packet.from_l3_bytes(wire)
        assert isinstance(parsed.l4, TcpHeader)
        assert parsed.l4.seq == 1000
        assert parsed.payload == payload
        assert parsed.to_l3_bytes() == wire

    def test_memoryview_input_materialized_once(self):
        wire = make_udp_packet().to_l3_bytes()
        parsed = Packet.from_l3_bytes(memoryview(wire))
        assert type(parsed.to_l3_bytes()) is bytes
        assert parsed.to_l3_bytes() == wire

    @given(
        payload=st.binary(min_size=0, max_size=512),
        sport=st.integers(1, 0xFFFF),
        dport=st.integers(1, 0xFFFF),
        ident=st.integers(1, 0xFFFF),
    )
    def test_property_lazy_equals_eager(self, payload, sport, dport, ident):
        eager = make_udp_packet(payload, sport, dport, ident)
        wire = eager.to_l3_bytes()
        parsed = Packet.from_l3_bytes(wire)
        assert parsed.to_l3_bytes() == wire
        assert parsed.l4.sport == sport
        assert parsed.l4.dport == dport
        assert parsed.payload == payload
        assert parsed.to_l3_bytes() == wire

    @given(payload=st.binary(min_size=0, max_size=256))
    def test_property_parts_join_equals_bytes(self, payload):
        for packet in (
            make_udp_packet(payload),
            make_fragment(payload or b"z"),
            Packet.from_l3_bytes(make_udp_packet(payload).to_l3_bytes()),
        ):
            assert b"".join(bytes(p) for p in packet.to_l3_parts()) == packet.to_l3_bytes()


class TestCacheInvalidation:
    def test_ip_mutation_invalidates(self):
        packet = make_udp_packet()
        first = packet.to_l3_bytes()
        packet.ip.ident = 4242
        second = packet.to_l3_bytes()
        assert second != first
        assert IPv4Header.from_bytes(second).ident == 4242

    def test_l4_mutation_invalidates(self):
        packet = make_udp_packet()
        first = packet.to_l3_bytes()
        packet.l4.dport = 9
        second = packet.to_l3_bytes()
        assert second != first
        reparsed = Packet.from_l3_bytes(second)
        assert reparsed.l4.dport == 9

    def test_l4_mutation_after_lazy_parse_invalidates(self):
        wire = make_udp_packet().to_l3_bytes()
        parsed = Packet.from_l3_bytes(wire)
        assert parsed.to_l3_bytes() == wire
        parsed.l4.sport = 1
        assert parsed.to_l3_bytes() != wire
        assert Packet.from_l3_bytes(parsed.to_l3_bytes()).l4.sport == 1

    def test_payload_replacement_invalidates(self):
        parsed = Packet.from_l3_bytes(make_udp_packet().to_l3_bytes())
        parsed.payload = b"short"
        parsed.ip.total_length = parsed.l3_len
        rebuilt = Packet.from_l3_bytes(parsed.to_l3_bytes())
        assert rebuilt.payload == b"short"


class TestCountersReporting:
    def test_engine_stats_include_serialization(self):
        sim = Simulator()
        stats = trace.engine_stats(sim)
        assert stats["serialization"] == WIRE_STATS.snapshot()

    def test_format_engine_stats_renders_counters(self):
        # Exercise the counters, then check they surface in the report.
        packet = make_udp_packet()
        packet.to_l3_bytes()
        packet.to_l3_bytes()
        sim = Simulator()
        out = report.format_engine_stats(trace.engine_stats(sim, wall_s=1.0))
        assert "serialization:" in out
        snap = WIRE_STATS.snapshot()
        assert f"lazy_l4_parses={snap['lazy_l4_parses']:,}" in out
        assert f"bytes_packed={snap['bytes_packed']:,}" in out
        assert "l3_cache_hits=" in out and "fifo_bytes_in=" in out

    def test_counters_reset(self):
        make_udp_packet().to_l3_bytes()
        WIRE_STATS.reset()
        snap = WIRE_STATS.snapshot()
        assert all(v == 0 for v in snap.values())

    def test_counts_follow_the_work(self):
        packet = make_tcp_segment(b"p" * 100)
        before = WIRE_STATS.snapshot()
        wire = packet.to_l3_bytes()
        Packet.from_l3_bytes(wire)
        after = WIRE_STATS.snapshot()
        delta = {k: after[k] - before[k] for k in after}
        # One serialization packs the IP and TCP headers ...
        assert delta["l3_cache_misses"] == 1
        assert delta["header_cache_misses"] == 2
        assert delta["bytes_packed"] == IPv4Header.HEADER_LEN + TcpHeader.HEADER_LEN
        # ... and one receive parses everything after the IP header.
        assert delta["lazy_l4_parses"] == 1
        assert delta["bytes_parsed"] == len(wire) - IPv4Header.HEADER_LEN
        assert delta["l3_cache_hits"] == delta["header_cache_hits"] == 0


u8 = st.integers(0, 0xFF)
u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)
macs = st.integers(0, (1 << 48) - 1).map(MacAddr)
ips = u32.map(IPv4Addr)

ip_headers = st.builds(
    IPv4Header,
    src=ips,
    dst=ips,
    proto=u8,
    ident=u16,
    frag_offset=st.integers(0, 0x1FFF).map(lambda units: units * 8),
    more_frags=st.booleans(),
    ttl=u8,
    total_length=u16,
)

HEADERS = {
    "eth": st.builds(EthHeader, dst=macs, src=macs, ethertype=u16),
    "arp": st.builds(
        ArpHeader, op=u16, sender_mac=macs, sender_ip=ips, target_mac=macs, target_ip=ips
    ),
    "ipv4": ip_headers,
    "udp": st.builds(UdpHeader, sport=u16, dport=u16, length=u16),
    "tcp": st.builds(
        TcpHeader, sport=u16, dport=u16, seq=u32, ack=u32, flags=u8, window=u16
    ),
    "icmp": st.builds(IcmpHeader, icmp_type=u8, code=u8, ident=u16, seq=u16),
}


def _whole(proto):
    def fix(ip):
        ip.proto = proto
        ip.frag_offset = 0
        ip.more_frags = False
        return ip

    return ip_headers.map(fix)


def _fragment(ip):
    if not ip.frag_offset:
        ip.more_frags = True
    return ip


bodies = st.binary(max_size=300)

#: (ip, l4, payload) triples of every shape the receive parse handles.
PACKETS = st.one_of(
    st.tuples(_whole(IPPROTO_TCP), HEADERS["tcp"], bodies),
    st.tuples(_whole(IPPROTO_UDP), HEADERS["udp"], bodies),
    st.tuples(_whole(IPPROTO_ICMP), HEADERS["icmp"], bodies),
    # an unknown protocol carries its L4 bytes as payload
    st.tuples(_whole(200), st.none(), bodies),
    st.tuples(ip_headers.map(_fragment), st.none(), st.binary(min_size=1, max_size=300)),
)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", sorted(HEADERS))
    @given(data=st.data())
    def test_header_bytes_round_trip(self, kind, data):
        header = data.draw(HEADERS[kind])
        assert type(header).from_bytes(header.to_bytes()) == header

    @pytest.mark.parametrize("as_view", [False, True], ids=["bytes", "memoryview"])
    @given(shape=PACKETS)
    def test_packet_round_trip(self, as_view, shape):
        ip, l4, payload = shape
        packet = Packet(payload=payload, l4=l4, ip=ip)
        ip.total_length = packet.l3_len
        wire = b"".join(packet.to_l3_parts())
        parsed = Packet.from_l3_bytes(memoryview(wire) if as_view else wire)
        assert parsed.ip == packet.ip
        assert parsed.l4 == packet.l4
        assert parsed.payload == packet.payload
        assert type(parsed.payload) is bytes

    @pytest.mark.parametrize("make", [make_udp_packet, make_fragment])
    @given(stale=u16)
    def test_stale_total_length_corrected_on_the_wire_only(self, make, stale):
        packet = make(b"q" * 40)
        true_length = packet.l3_len
        packet.ip.total_length = stale
        wire = b"".join(packet.to_l3_parts())
        assert IPv4Header.from_bytes(wire).total_length == true_length
        assert Packet.from_l3_bytes(wire).ip.total_length == true_length
        assert packet.ip.total_length == stale

    def test_clone_copies_headers_and_shares_payload(self):
        packet = make_udp_packet()
        wire = packet.to_l3_bytes()
        twin = packet.clone()
        assert twin.to_l3_bytes() == wire
        assert twin.payload is packet.payload
        twin.ip.ident = 1
        twin.l4.dport = 2
        assert packet.to_l3_bytes() == wire
