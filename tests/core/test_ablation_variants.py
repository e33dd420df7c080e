"""The design-alternative implementations used by the ablation benches."""

import pytest

from repro import scenarios, trace
from repro.core.channel import ENTRY_STREAM
from repro.core.fifo import Fifo, fifo_pages_for_order
from repro.net.packet import WIRE_STATS
from repro.workloads import netperf
from repro.xen.page import SharedRegion
from tests.conftest import run_gen
from tests.core.conftest import FAST, first_channel, udp_once


def _zero_copy_scenario():
    scn = scenarios.xenloop(FAST, zero_copy_rx=True)
    scn.warmup(max_wait=10.0)
    return scn


class TestFifoPeekAdvance:
    def _fifo(self, k=9):
        return Fifo(SharedRegion(1, 1 + fifo_pages_for_order(k)), k=k)

    def _peek(self, fifo):
        msg_type, segments, slots = fifo.peek_view()
        return msg_type, b"".join(segments), slots

    def test_peek_does_not_consume(self):
        fifo = self._fifo()
        fifo.push((b"held",), msg_type=2)
        assert self._peek(fifo) == (2, b"held", fifo.slots_needed(4))
        assert self._peek(fifo) == (2, b"held", fifo.slots_needed(4))
        assert fifo.used_slots > 0

    def test_advance_frees_slots(self):
        fifo = self._fifo()
        fifo.push((b"x" * 100,))
        _t, _d, slots = fifo.peek_view()
        fifo.advance(slots)
        assert fifo.is_empty

    def test_space_held_during_peek_blocks_producer(self):
        fifo = self._fifo(4)  # 16 slots
        assert fifo.push((b"a" * 100,))  # 14 slots
        _t, _d, slots = fifo.peek_view()
        assert not fifo.push((b"b" * 100,))  # no room while held
        fifo.advance(slots)
        assert fifo.push((b"b" * 100,))

    def test_pop_equals_peek_plus_advance(self):
        f1, f2 = self._fifo(), self._fifo()
        for f in (f1, f2):
            f.push((b"same",))
        t, d, slots = self._peek(f1)
        f1.advance(slots)
        assert (t, d) == f2.pop()
        assert f1.front == f2.front


class TestZeroCopyVariant:
    def test_correctness_preserved(self):
        scn = _zero_copy_scenario()
        payload = bytes(range(256)) * 16
        assert udp_once(scn, payload, port=7701) == payload
        ch = first_channel(scn, scn.node_a)
        assert ch.zero_copy_rx

    def test_streams_slower_than_two_copy(self):
        """The paper's conclusion from Sect. 3.3: holding FIFO space
        during protocol processing costs more than the copy saves."""
        results = {}
        for zc in (False, True):
            scn = scenarios.xenloop(FAST, zero_copy_rx=zc)
            scn.warmup(max_wait=10.0)
            results[zc] = netperf.udp_stream(scn, duration=0.02, msg_size=8192).mbps
        assert results[False] > results[True]

    def test_every_byte_pushed_is_counted_out(self):
        """Five 1,000 B datagrams: 1,028 B of IPv4 packet each go into
        the FIFO, and the zero-copy drain reads all of them out."""
        scn = _zero_copy_scenario()
        WIRE_STATS.reset()
        for i in range(5):
            assert udp_once(scn, bytes([i]) * 1000, port=7702 + i) == bytes([i]) * 1000
        assert (WIRE_STATS.fifo_bytes_in, WIRE_STATS.fifo_bytes_out) == (5140, 5140)
        scn.sim.run(until=scn.sim.now + 0.001)  # let the drain wake end
        ch_b = first_channel(scn, scn.node_b)
        assert ch_b.drain_entries == ch_b.pkts_received and ch_b.drain_batches >= 1

    def test_traced_ping_marks_the_fifo_pop(self):
        stages = [stage for stage, _ in trace.traced_ping(_zero_copy_scenario())]
        assert stages[:3] == ["ip-output", "xenloop-fifo-push", "xenloop-fifo-pop"]

    def test_stream_frames_reach_the_stream_handler(self):
        scn = _zero_copy_scenario()
        ch_a = first_channel(scn, scn.node_a)
        ch_b = first_channel(scn, scn.node_b)
        got = []
        ch_b.stream_handler = got.append
        pkts, nbytes = ch_b.pkts_received, ch_b.bytes_received
        assert run_gen(scn.sim, ch_a.send_entry_parts(ENTRY_STREAM, (b"frame-", memoryview(b"1"))))
        scn.sim.run(until=scn.sim.now + 0.001)
        assert got == [b"frame-1"]
        assert (ch_b.pkts_received, ch_b.bytes_received) == (pkts + 1, nbytes + 7)


class TestCoalescingToggle:
    def test_disabled_coalescing_multiplies_upcalls(self):
        upcalls = {}
        for coalesce in (True, False):
            scn = scenarios.xenloop(FAST)
            scn.machines[0].hypervisor.evtchn.coalescing = coalesce
            scn.warmup(max_wait=10.0)
            ch = first_channel(scn, scn.node_a)
            sim = scn.sim
            server = scn.node_b.stack.udp_socket(7702, rcvbuf=1 << 22)
            client = scn.node_a.stack.udp_socket()

            def blast():
                for _ in range(100):
                    yield from client.sendto(bytes(1000), (scn.ip_b, 7702))

            proc = sim.process(blast())
            sim.run_until_complete(proc, timeout=30)
            sim.run(until=sim.now + 0.05)
            assert server.rx_msgs == 100  # correctness unaffected
            upcalls[coalesce] = ch.port.peer.upcalls
        assert upcalls[False] > upcalls[True]
