"""Lazy wire-format caching: byte-exactness, invalidation, laziness.

The zero-copy data path must be invisible at the byte level: a packet
received lazily (raw L3 view kept, body parsed on first access) must
serialize to exactly the bytes an eagerly-built packet produces, and
any field mutation after caching must invalidate the cached wire form.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import report, trace
from repro.net.addr import IPv4Addr
from repro.net.ethernet import IPPROTO_TCP, IPPROTO_UDP
from repro.net.packet import (
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
        lazy = Packet.from_l3_bytes(wire)
        assert lazy.to_l3_bytes() == wire
        # Field access parses the body and must see the same values.
        assert lazy.l4.dport == 5678
        assert lazy.payload == b"x" * 64
        # Read-only parse keeps the cached wire form valid.
        assert lazy.to_l3_bytes() == wire

    def test_parse_is_deferred_until_field_access(self):
        wire = make_udp_packet().to_l3_bytes()
        before = WIRE_STATS.snapshot()
        lazy = Packet.from_l3_bytes(wire)
        assert WIRE_STATS.lazy_l4_parses == before["lazy_l4_parses"]
        # Size accessors must not force the parse (forwarding hops only
        # need lengths).
        assert lazy.l3_len == len(wire)
        assert WIRE_STATS.lazy_l4_parses == before["lazy_l4_parses"]
        lazy.l4  # first body access parses
        assert WIRE_STATS.lazy_l4_parses == before["lazy_l4_parses"] + 1
        lazy.payload  # second access does not re-parse
        assert WIRE_STATS.lazy_l4_parses == before["lazy_l4_parses"] + 1

    def test_fragment_roundtrip_no_l4(self):
        frag = make_fragment()
        wire = frag.to_l3_bytes()
        lazy = Packet.from_l3_bytes(wire)
        # Fragments never grow a transport header on parse.
        assert lazy.l4 is None
        assert lazy.payload == b"f" * 48
        assert lazy.to_l3_bytes() == wire

    def test_gso_segment_roundtrip(self):
        payload = bytes(range(256)) * 24  # 6 KB > MTU
        seg = make_tcp_segment(payload)
        wire = seg.to_l3_bytes()
        lazy = Packet.from_l3_bytes(wire)
        assert isinstance(lazy.l4, TcpHeader)
        assert lazy.l4.seq == 1000
        assert lazy.payload == payload
        assert lazy.to_l3_bytes() == wire

    def test_memoryview_input_materialized_once(self):
        wire = make_udp_packet().to_l3_bytes()
        lazy = Packet.from_l3_bytes(memoryview(wire))
        assert type(lazy.to_l3_bytes()) is bytes
        assert lazy.to_l3_bytes() == wire

    @given(
        payload=st.binary(min_size=0, max_size=512),
        sport=st.integers(1, 0xFFFF),
        dport=st.integers(1, 0xFFFF),
        ident=st.integers(1, 0xFFFF),
    )
    def test_property_lazy_equals_eager(self, payload, sport, dport, ident):
        eager = make_udp_packet(payload, sport, dport, ident)
        wire = eager.to_l3_bytes()
        lazy = Packet.from_l3_bytes(wire)
        assert lazy.to_l3_bytes() == wire
        assert lazy.l4.sport == sport
        assert lazy.l4.dport == dport
        assert lazy.payload == payload
        assert lazy.to_l3_bytes() == wire

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
        lazy = Packet.from_l3_bytes(wire)
        assert lazy.to_l3_bytes() == wire  # seeded cache hit
        lazy.l4.sport = 1  # parse + mutate
        assert lazy.to_l3_bytes() != wire
        assert Packet.from_l3_bytes(lazy.to_l3_bytes()).l4.sport == 1

    def test_payload_replacement_invalidates(self):
        lazy = Packet.from_l3_bytes(make_udp_packet().to_l3_bytes())
        lazy.payload = b"short"
        lazy.ip.total_length = lazy.l3_len
        rebuilt = Packet.from_l3_bytes(lazy.to_l3_bytes())
        assert rebuilt.payload == b"short"

    def test_unchanged_packet_serializes_once(self):
        packet = make_udp_packet()
        before = WIRE_STATS.snapshot()
        packet.to_l3_bytes()
        packet.to_l3_bytes()
        packet.to_l3_bytes()
        after = WIRE_STATS.snapshot()
        assert after["l3_cache_misses"] - before["l3_cache_misses"] == 1
        assert after["l3_cache_hits"] - before["l3_cache_hits"] == 2

    def test_clone_carries_valid_cache(self):
        packet = make_udp_packet()
        wire = packet.to_l3_bytes()
        before = WIRE_STATS.snapshot()
        assert packet.clone().to_l3_bytes() == wire
        after = WIRE_STATS.snapshot()
        assert after["l3_cache_misses"] == before["l3_cache_misses"]


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
        assert "l3_cache_hits=" in out and "pool_hits=" in out

    def test_counters_reset(self):
        make_udp_packet().to_l3_bytes()
        WIRE_STATS.reset()
        snap = WIRE_STATS.snapshot()
        assert all(v == 0 for v in snap.values())
