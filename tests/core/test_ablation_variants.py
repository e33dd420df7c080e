"""The design-alternative implementations used by the ablation benches."""

import pytest

from repro import scenarios
from repro.core.fifo import Fifo, fifo_pages_for_order
from repro.workloads import netperf
from repro.xen.page import SharedRegion
from tests.core.conftest import FAST, first_channel, udp_once


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
        scn = scenarios.xenloop(FAST, zero_copy_rx=True)
        scn.warmup(max_wait=10.0)
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
