"""Scatter-gather FIFO I/O.

A vectored ``push`` must be byte-equivalent to pushing the joined
parts; ``peek_view`` must expose the same bytes with zero copies (two
ring segments iff the entry wraps), and ``pop`` must copy them out.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fifo import Fifo, fifo_pages_for_order
from repro.net.packet import WIRE_STATS
from repro.xen.page import SharedRegion


def make_fifo(k=9):
    region = SharedRegion(1, 1 + fifo_pages_for_order(k))
    return Fifo(region, k=k)


class TestPushVec:
    def test_vectored_entry_round_trips(self):
        fifo = make_fifo()
        assert fifo.push((b"head", b"body", b"tail"), msg_type=2)
        assert fifo.pop() == (2, b"headbodytail")

    def test_matches_joined_push(self):
        parts = (b"\x01\x02", b"", b"abcdefg", b"\xff" * 9)
        vec, plain = make_fifo(), make_fifo()
        assert vec.push(parts)
        assert plain.push((b"".join(parts),))
        assert vec.pop() == plain.pop()

    def test_memoryview_parts(self):
        fifo = make_fifo()
        buf = bytearray(b"0123456789")
        assert fifo.push((memoryview(buf)[:4], memoryview(buf)[4:]))
        assert fifo.pop() == (1, b"0123456789")

    def test_full_fifo_rejected(self):
        fifo = make_fifo(k=6)  # 64 slots -> 63 usable
        big = b"x" * (fifo.capacity_bytes - 8)
        assert fifo.push((big[:10], big[10:]))
        assert not fifo.push((b"y",))
        assert fifo.push_failures == 1

    def test_counts_fifo_bytes(self):
        fifo = make_fifo()
        before = WIRE_STATS.snapshot()
        fifo.push((b"ab", b"cde"))
        fifo.pop()
        after = WIRE_STATS.snapshot()
        assert after["fifo_bytes_in"] - before["fifo_bytes_in"] == 5
        assert after["fifo_bytes_out"] - before["fifo_bytes_out"] == 5

    @settings(max_examples=50)
    @given(
        st.lists(
            st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=4),
            min_size=1,
            max_size=20,
        )
    )
    def test_property_vectored_stream(self, entries):
        fifo = make_fifo()
        expected = []
        for parts in entries:
            joined = b"".join(parts)
            if fifo.push(parts):
                expected.append(joined)
        got = []
        while True:
            entry = fifo.pop()
            if entry is None:
                break
            got.append(entry[1])
        assert got == expected


class TestPeekView:
    def test_contiguous_single_segment(self):
        fifo = make_fifo()
        fifo.push((b"hello world",), msg_type=3)
        msg_type, segments, slots = fifo.peek_view()
        assert msg_type == 3
        assert len(segments) == 1
        assert bytes(segments[0]) == b"hello world"
        fifo.advance(slots)
        assert fifo.pop() is None

    def test_wrapping_entry_two_segments(self):
        fifo = make_fifo(k=6)
        cap = fifo.capacity_bytes
        # Fill most of the ring, drain it, then push an entry that must
        # wrap around the ring edge.
        first = bytes(range(256)) * 4
        first = first[: cap // 2 + 64]
        assert fifo.push((first,))
        assert fifo.pop() == (1, first)
        second = bytes(reversed(range(200)))
        assert fifo.push((second,))
        _msg_type, segments, _slots = fifo.peek_view()
        assert len(segments) == 2
        assert b"".join(bytes(s) for s in segments) == second
        # pop() must materialize the same bytes (single join).
        assert fifo.pop() == (1, second)
        assert fifo.is_empty

    def test_views_alias_ring_until_advance(self):
        fifo = make_fifo()
        fifo.push((b"aaaa",))
        _, segments, slots = fifo.peek_view()
        view = segments[0]
        assert bytes(view) == b"aaaa"
        # Zero-copy: the view reflects the live ring memory.
        assert view.obj is fifo._data.obj
        del view, segments
        fifo.advance(slots)
