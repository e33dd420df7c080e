"""The experimental transport-layer XenLoop variant (paper future work)."""

import pytest

from repro import scenarios
from repro.core.socket_bypass import BypassConnection, BypassError
from repro.workloads import netperf
from tests.core.conftest import FAST


@pytest.fixture
def bp():
    scn = scenarios.xenloop(FAST, socket_bypass=True)
    scn.warmup(max_wait=10.0)
    return scn


def tcp_pair(scn, port):
    """Connect via the ordinary socket API; returns (client, server)."""
    sim = scn.sim
    listener = scn.node_b.stack.tcp_listen(port)
    out = {}

    def srv():
        out["server"] = yield from listener.accept()

    def cli():
        out["client"] = yield from scn.node_a.stack.tcp_connect((scn.ip_b, port))

    sim.process(srv())
    proc = sim.process(cli())
    sim.run_until_complete(proc, timeout=10)
    sim.run(until=sim.now + 0.01)
    return out["client"], out["server"]


class TestTransparency:
    def test_connect_yields_bypass_stream(self, bp):
        client, server = tcp_pair(bp, 7801)
        assert isinstance(client, BypassConnection)
        assert isinstance(server, BypassConnection)
        assert client.state == server.state == "ESTABLISHED"

    def test_same_api_as_tcp(self, bp):
        """The application code below is byte-for-byte what the TCP tests
        run -- transparency means it cannot tell the difference."""
        client, server = tcp_pair(bp, 7802)
        sim = bp.sim
        payload = bytes(range(256)) * 100

        def cli():
            yield from client.send(payload)

        def srv():
            return (yield from server.recv_exactly(len(payload)))

        sim.process(cli())
        proc = sim.process(srv())
        assert sim.run_until_complete(proc, timeout=30) == payload

    def test_no_listener_falls_back_to_tcp(self, bp):
        """Connecting to a port nobody listens on must not hang in the
        bypass layer; it falls back to TCP (which then stalls exactly as
        real TCP would)."""
        sim = bp.sim

        def cli():
            conn = yield from bp.node_a.stack.tcp_connect((bp.ip_b, 7999))
            return conn

        proc = sim.process(cli())
        sim.run(until=sim.now + 2.0)
        assert not proc.triggered  # TCP SYN to a closed port: no answer
        module = bp.xenloop_module(bp.node_a)
        assert module.bypass_fallbacks >= 1

    def test_fallback_to_tcp_before_channel_exists(self):
        scn = scenarios.xenloop(FAST, socket_bypass=True)
        # no warmup: no channel yet -> connect falls back to real TCP
        client, server = tcp_pair(scn, 7803)
        from repro.net.tcp import TcpConnection

        assert isinstance(client, TcpConnection)

    def test_eof_semantics(self, bp):
        client, server = tcp_pair(bp, 7804)
        sim = bp.sim

        def cli():
            yield from client.send(b"bye")
            yield from client.close()

        def srv():
            data = yield from server.recv(100)
            eof = yield from server.recv(100)
            return data, eof

        sim.process(cli())
        proc = sim.process(srv())
        data, eof = sim.run_until_complete(proc, timeout=10)
        assert data == b"bye"
        assert eof == b""

    def test_full_close_both_sides(self, bp):
        client, server = tcp_pair(bp, 7805)
        sim = bp.sim

        def cli():
            yield from client.close()
            yield client.closed_event

        def srv():
            yield from server.recv(10)
            yield from server.close()

        sim.process(srv())
        proc = sim.process(cli())
        sim.run_until_complete(proc, timeout=10)
        assert client.state == "CLOSED"
        module = bp.xenloop_module(bp.node_a)
        assert module.stats()["bypass_streams"] == 0


class TestConcurrentReaders:
    """Two processes blocked in ``recv`` on one stream both see the end
    of it, over TCP and over the bypass stream alike: EOF and close wake
    every blocked reader, not just the oldest."""

    @staticmethod
    def _peer_close(scn, client, server):
        scn.sim.process(client.close())

    @staticmethod
    def _abort(scn, client, server):
        if isinstance(client, BypassConnection):
            # The channel dies under the stream (module unload).
            scn.sim.process(scn.xenloop_module(scn.node_a).unload())
        else:
            # The client vanishes without a trace; the server's next
            # segment draws a RST from the client's stack.
            client._become_closed()
            scn.sim.process(server.send(b"?"))

    @pytest.mark.parametrize("end", ["peer_close", "abort"])
    @pytest.mark.parametrize("bypass", [False, True], ids=["tcp", "bypass"])
    def test_every_blocked_reader_sees_the_end(self, bypass, end):
        scn = scenarios.xenloop(FAST, socket_bypass=bypass)
        scn.warmup(max_wait=10.0)
        client, server = tcp_pair(scn, 7810)
        assert isinstance(server, BypassConnection) == bypass
        sim = scn.sim
        got = {}

        def reader(i):
            got[i] = yield from server.recv(100)

        for i in range(2):
            sim.process(reader(i))
        sim.run(until=sim.now + 0.01)
        assert got == {}  # both parked on the empty stream
        getattr(self, f"_{end}")(scn, client, server)
        sim.run(until=sim.now + 1.0)
        assert got == {0: b"", 1: b""}


class TestPerformance:
    def test_rr_faster_than_base_xenloop(self):
        """The whole point: no transport/network processing on the path."""
        results = {}
        for bypass in (False, True):
            scn = scenarios.xenloop(FAST, socket_bypass=bypass)
            scn.warmup(max_wait=10.0)
            results[bypass] = netperf.tcp_rr(scn, duration=0.05).trans_per_sec
        assert results[True] > 1.2 * results[False]

    def test_stream_faster_than_base_xenloop(self):
        results = {}
        for bypass in (False, True):
            scn = scenarios.xenloop(FAST, socket_bypass=bypass)
            scn.warmup(max_wait=10.0)
            results[bypass] = netperf.tcp_stream(scn, duration=0.02).mbps
        assert results[True] > results[False]


class TestChannelDeath:
    def test_streams_error_on_module_unload(self, bp):
        client, server = tcp_pair(bp, 7806)
        sim = bp.sim
        module_a = bp.xenloop_module(bp.node_a)
        proc = sim.process(module_a.unload())
        sim.run_until_complete(proc, timeout=10)
        sim.run(until=sim.now + 0.2)
        assert client.state == "CLOSED"

        def try_send():
            yield from client.send(b"x")

        with pytest.raises(BypassError):
            sim.run_until_complete(sim.process(try_send()), timeout=5)

    def test_new_connections_fall_back_after_unload(self, bp):
        sim = bp.sim
        module_a = bp.xenloop_module(bp.node_a)
        proc = sim.process(module_a.unload())
        sim.run_until_complete(proc, timeout=10)
        sim.run(until=sim.now + 0.2)
        client, _server = tcp_pair(bp, 7807)
        from repro.net.tcp import TcpConnection

        assert isinstance(client, TcpConnection)
