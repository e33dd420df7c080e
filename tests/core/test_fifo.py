"""The lockless FIFO: layout, wraparound, m>k index arithmetic, and
hypothesis properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fifo import (
    FLAG_ACTIVE,
    FLAG_CONSUMER_WAITING,
    FLAG_PRODUCER_WAITING,
    Fifo,
    FifoLayoutError,
    INDEX_MASK,
    MAGIC,
    fifo_pages_for_order,
)
from repro.xen.page import PAGE_SIZE, SharedRegion


def make_fifo(k=9):
    region = SharedRegion(1, 1 + fifo_pages_for_order(k))
    return Fifo(region, k=k)


class TestLayout:
    def test_pages_for_order(self):
        assert fifo_pages_for_order(13) == 16  # 64 KB
        assert fifo_pages_for_order(9) == 1
        assert fifo_pages_for_order(8) == 1  # sub-page rounds up

    def test_descriptor_initialized(self):
        fifo = make_fifo(9)
        assert fifo.active
        assert fifo.size == 512
        assert fifo.is_empty

    def test_magic_written(self):
        fifo = make_fifo(9)
        assert int(fifo._desc[0]) == MAGIC

    def test_consumer_view_reads_layout(self):
        producer = make_fifo(10)
        consumer = Fifo(producer.region)  # k=None: read back
        assert consumer.k == 10
        assert consumer.size == producer.size

    def test_unformatted_region_rejected(self):
        region = SharedRegion(1, 2)
        with pytest.raises(FifoLayoutError):
            Fifo(region)

    def test_region_too_small_rejected(self):
        region = SharedRegion(1, 2)  # 1 data page = 4 KB
        with pytest.raises(FifoLayoutError):
            Fifo(region, k=13)  # needs 64 KB

    def test_k_bounds(self):
        region = SharedRegion(1, 2)
        with pytest.raises(FifoLayoutError):
            Fifo(region, k=0)
        with pytest.raises(FifoLayoutError):
            Fifo(region, k=32)  # m must exceed k

    def test_capacity_bytes(self):
        fifo = make_fifo(13)
        assert fifo.capacity_bytes == (8192 - 1) * 8
        assert fifo.fits(fifo.capacity_bytes)
        assert not fifo.fits(fifo.capacity_bytes + 1)


class TestPushPop:
    def test_roundtrip(self):
        fifo = make_fifo()
        assert fifo.push((b"hello",), msg_type=3)
        assert fifo.pop() == (3, b"hello")
        assert fifo.is_empty

    def test_empty_pop_none(self):
        assert make_fifo().pop() is None

    def test_fifo_order(self):
        fifo = make_fifo()
        for i in range(10):
            fifo.push((bytes([i]) * (i + 1),))
        for i in range(10):
            assert fifo.pop() == (1, bytes([i]) * (i + 1))

    def test_zero_length_payload(self):
        fifo = make_fifo()
        fifo.push((b"",))
        assert fifo.pop() == (1, b"")

    def test_full_rejects_push(self):
        fifo = make_fifo(9)  # 512 slots = 4096 bytes of slots
        big = bytes(1000)  # 126 slots each
        pushed = 0
        while fifo.push((big,)):
            pushed += 1
        assert pushed == 4  # 4*126=504 slots; a 5th (126) cannot fit in 8
        assert fifo.push_failures == 1

    def test_exact_fill(self):
        fifo = make_fifo(4)  # 16 slots
        assert fifo.push((bytes(15 * 8),))  # needs exactly 16 slots
        assert fifo.used_slots == fifo.size
        assert fifo.free_slots == 0
        assert not fifo.is_empty
        assert fifo.pop() == (1, bytes(15 * 8))

    def test_interleaved_producer_consumer_views(self):
        producer = make_fifo(9)
        consumer = Fifo(producer.region)
        producer.push((b"one",))
        assert consumer.pop() == (1, b"one")
        producer.push((b"two",))
        assert consumer.pop() == (1, b"two")
        assert consumer.pop() is None


class TestWraparound:
    def test_data_wraps_ring_boundary(self):
        fifo = make_fifo(6)  # 64 slots
        filler = bytes(8 * 50)
        fifo.push((filler,))
        fifo.pop()
        # ring position is now near the end; this entry must wrap
        payload = bytes(range(100))
        assert fifo.push((payload,))
        assert fifo.pop() == (1, payload)

    def test_index_wraps_mod_2_32(self):
        fifo = make_fifo(4)
        # Force indices close to the 32-bit boundary, as the free-running
        # m-bit counters eventually do.
        fifo._desc[2] = INDEX_MASK - 5  # front
        fifo._desc[3] = INDEX_MASK - 5  # back
        assert fifo.is_empty
        payload = bytes(40)
        assert fifo.push((payload,))
        assert fifo.used_slots == 6
        assert fifo.pop() == (1, payload)
        assert fifo.front == (INDEX_MASK - 5 + 6) & INDEX_MASK

    def test_many_cycles(self):
        fifo = make_fifo(5)  # 32 slots
        for i in range(500):
            data = bytes([i % 256]) * (i % 64)
            assert fifo.push((data,), msg_type=2)
            assert fifo.pop() == (2, data)


class TestFlags:
    def test_mark_inactive_visible_to_peer_view(self):
        producer = make_fifo()
        consumer = Fifo(producer.region)
        producer.mark_inactive()
        assert not consumer.active

    def test_producer_waiting_flag(self):
        fifo = make_fifo()
        assert not fifo.producer_waiting
        fifo.set_producer_waiting()
        assert fifo.producer_waiting
        fifo.clear_producer_waiting()
        assert not fifo.producer_waiting
        assert fifo.active  # flag ops don't clobber ACTIVE

    def test_flags_shared_and_independent(self):
        producer = make_fifo()
        consumer = Fifo(producer.region)
        flags = {
            FLAG_ACTIVE: "active",
            FLAG_PRODUCER_WAITING: "producer_waiting",
            FLAG_CONSUMER_WAITING: "consumer_waiting",
        }

        def seen(fifo):
            word = sum(bit for bit, name in flags.items() if getattr(fifo, name))
            assert fifo.snapshot_state()["flags"] == word
            return word

        assert seen(producer) == seen(consumer) == FLAG_ACTIVE
        steps = [
            (producer.set_producer_waiting, FLAG_PRODUCER_WAITING, True),
            (consumer.set_consumer_waiting, FLAG_CONSUMER_WAITING, True),
            (consumer.clear_producer_waiting, FLAG_PRODUCER_WAITING, False),
            (producer.set_producer_waiting, FLAG_PRODUCER_WAITING, True),
            (consumer.clear_consumer_waiting, FLAG_CONSUMER_WAITING, False),
            (consumer.mark_inactive, FLAG_ACTIVE, False),
            (producer.clear_producer_waiting, FLAG_PRODUCER_WAITING, False),
        ]
        expected = FLAG_ACTIVE
        for op, bit, on in steps:
            op()
            expected = expected | bit if on else expected & ~bit
            # Each side sees the other's write; no other bit moves.
            assert seen(producer) == seen(consumer) == expected
        assert expected == 0

    @pytest.mark.parametrize("side", ["producer", "consumer"])
    def test_mark_inactive_from_either_side(self, side):
        producer = make_fifo()
        consumer = Fifo(producer.region)
        producer.set_producer_waiting()
        consumer.set_consumer_waiting()
        ends = {"producer": (producer, consumer), "consumer": (consumer, producer)}
        closer, other = ends[side]
        closer.mark_inactive()
        assert not other.active and not closer.active
        assert other.producer_waiting and other.consumer_waiting

    def test_gref_table_roundtrip(self):
        fifo = make_fifo()
        grefs = [5, 99, 1234, 7]
        fifo.store_grefs(grefs)
        assert fifo.load_grefs() == grefs
        consumer = Fifo(fifo.region)
        assert consumer.load_grefs() == grefs


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.binary(min_size=0, max_size=300), max_size=50))
    def test_push_all_pop_all(self, payloads):
        fifo = make_fifo(12)
        accepted = [p for p in payloads if fifo.push((p,))]
        popped = []
        while (entry := fifo.pop()) is not None:
            popped.append(entry[1])
        assert popped == accepted

    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("push"), st.binary(min_size=0, max_size=200)),
                st.tuples(st.just("pop"), st.none()),
            ),
            max_size=200,
        )
    )
    def test_interleaved_ops_preserve_order_and_capacity(self, ops):
        fifo = make_fifo(6)
        model = []
        for op, arg in ops:
            if op == "push":
                ok = fifo.push((arg,))
                model_ok = fifo.slots_needed(len(arg)) <= 64 - sum(
                    fifo.slots_needed(len(m)) for m in model
                )
                assert ok == model_ok
                if ok:
                    model.append(arg)
            else:
                got = fifo.pop()
                if model:
                    assert got == (1, model.pop(0))
                else:
                    assert got is None
        # Drain and verify the remainder.
        for expected in model:
            assert fifo.pop() == (1, expected)
        assert fifo.pop() is None

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_any_index_origin_behaves(self, origin):
        """The m>k free-running index scheme works from any index origin."""
        fifo = make_fifo(5)
        fifo._desc[2] = origin
        fifo._desc[3] = origin
        data = bytes(77)
        assert fifo.push((data,))
        assert fifo.pop() == (1, data)
        assert fifo.is_empty
