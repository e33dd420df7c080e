"""TCP retransmission: recovery from injected loss.

The only loss on real simulated paths is migration downtime; these
tests inject loss directly via a dropping netfilter hook so the RTO
machinery is exercised deterministically.
"""

import pytest

from repro.calibration import DEFAULT_COSTS
from repro.net.netfilter import HookPoint, Verdict
from repro.net.packet import TcpHeader
from tests.net.test_tcp import connect_pair


class _Dropper:
    """POST_ROUTING hook dropping the next N TCP data segments."""

    def __init__(self, count, match=None):
        self.remaining = count
        self.match = match or (lambda pkt: len(pkt.payload) > 0)
        self.dropped = []

    def __call__(self, packet, dev):
        if (
            self.remaining > 0
            and isinstance(packet.l4, TcpHeader)
            and self.match(packet)
        ):
            self.remaining -= 1
            self.dropped.append(packet.l4.seq)
            return Verdict.DROP
        return Verdict.ACCEPT
        yield  # pragma: no cover


class TestRetransmission:
    def test_lost_data_segment_recovered(self, sim, host):
        client, server = connect_pair(sim, host, host)
        dropper = _Dropper(1)
        host.stack.netfilter.register(HookPoint.POST_ROUTING, dropper)
        payload = bytes(range(256)) * 32  # 8 KB

        def cli():
            yield from client.send(payload)

        def srv():
            return (yield from server.recv_exactly(len(payload)))

        sim.process(cli())
        proc = sim.process(srv())
        got = sim.run_until_complete(proc, timeout=30)
        assert got == payload
        assert dropper.dropped  # something really was lost
        assert client.retransmissions >= 1

    def test_burst_loss_recovered_in_one_rto(self, sim, host):
        """Go-back-N: a burst of consecutive losses costs ~one RTO, not
        one RTO per segment."""
        client, server = connect_pair(sim, host, host)

        def transfer(payload):
            def cli():
                yield from client.send(payload)

            def srv():
                return (yield from server.recv_exactly(len(payload)))

            sim.process(cli())
            proc = sim.process(srv())
            sim.run_until_complete(proc, timeout=30)

        # Open the window first: from IW10 (one GSO segment here) the
        # five drops would land in five successive flights, one RTO each.
        transfer(bytes(300_000))
        assert client.cwnd >= 100_000  # the next transfer is one flight
        dropper = _Dropper(5)
        host.stack.netfilter.register(HookPoint.POST_ROUTING, dropper)
        t0 = sim.now
        transfer(bytes(100_000))
        elapsed = sim.now - t0
        assert len(dropper.dropped) == 5
        assert elapsed < 2.5 * DEFAULT_COSTS.tcp_rto

    def test_no_loss_no_retransmissions(self, sim, host):
        client, server = connect_pair(sim, host, host)
        payload = bytes(50_000)

        def cli():
            yield from client.send(payload)

        def srv():
            return (yield from server.recv_exactly(len(payload)))

        sim.process(cli())
        proc = sim.process(srv())
        sim.run_until_complete(proc, timeout=30)
        assert client.retransmissions == 0

    def test_lost_fin_recovered(self, sim, host):
        client, server = connect_pair(sim, host, host)
        dropper = _Dropper(1, match=lambda pkt: bool(pkt.l4.flags & 0x01))  # FIN
        host.stack.netfilter.register(HookPoint.POST_ROUTING, dropper)

        def cli():
            yield from client.send(b"tail")
            yield from client.close()

        def srv():
            data = yield from server.recv(10)
            eof = yield from server.recv(10)
            return data, eof

        sim.process(cli())
        proc = sim.process(srv())
        data, eof = sim.run_until_complete(proc, timeout=30)
        assert (data, eof) == (b"tail", b"")
        assert dropper.dropped

    def test_lost_syn_retried(self, sim, host):
        listener = host.stack.tcp_listen(5601)
        dropper = _Dropper(1, match=lambda pkt: bool(pkt.l4.flags & 0x02))  # SYN
        host.stack.netfilter.register(HookPoint.POST_ROUTING, dropper)
        out = {}

        def srv():
            out["conn"] = yield from listener.accept()

        def cli():
            out["client"] = yield from host.stack.tcp_connect((host.stack.ip, 5601))

        sim.process(srv())
        proc = sim.process(cli())
        sim.run_until_complete(proc, timeout=30)
        assert out["client"].state == "ESTABLISHED"
        assert dropper.dropped

    def test_duplicate_segments_ignored(self, sim, host):
        """Retransmitted duplicates (receiver already has the bytes) must
        not corrupt the stream."""
        client, server = connect_pair(sim, host, host)
        # drop an ACK so the client retransmits data the server has
        dropper = _Dropper(
            2, match=lambda pkt: len(pkt.payload) == 0 and pkt.l4.flags == 0x10
        )
        host.stack.netfilter.register(HookPoint.POST_ROUTING, dropper)
        payload = bytes(range(256)) * 64

        def cli():
            yield from client.send(payload)

        def srv():
            return (yield from server.recv_exactly(len(payload)))

        sim.process(cli())
        proc = sim.process(srv())
        assert sim.run_until_complete(proc, timeout=30) == payload
        assert server.bytes_received == len(payload)
