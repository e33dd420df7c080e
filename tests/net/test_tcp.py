"""TCP: handshake, stream integrity, windows, close, out-of-order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import DEFAULT_COSTS
from repro.net.addr import IPv4Addr
from repro.net.node import Node
from repro.net.stack import NetworkStack
from repro.net.tcp import ByteQueue
from repro.sim.engine import Simulator
from repro.sim.resources import CPUCores
from tests.conftest import run_gen


def connect_pair(sim, node_a, node_b, port=5000, **kwargs):
    """Establish a connection; returns (client_conn, server_conn).

    Buffer kwargs (sndbuf/rcvbuf) apply to both ends."""
    listener = node_b.stack.tcp_listen(port, **kwargs)
    result = {}

    def srv():
        result["server"] = yield from listener.accept()

    def cli():
        result["client"] = yield from node_a.stack.tcp_connect(
            (node_b.stack.ip, port), **kwargs
        )

    sp = sim.process(srv())
    cp = sim.process(cli())
    sim.run_until_complete(cp, timeout=10)
    sim.run_until_complete(sp, timeout=10)
    return result["client"], result["server"]


class TestHandshake:
    def test_connect_accept(self, sim, host):
        client, server = connect_pair(sim, host, host)
        assert client.state == "ESTABLISHED"
        assert server.state == "ESTABLISHED"

    def test_ports_match(self, sim, host):
        client, server = connect_pair(sim, host, host)
        assert client.remote == server.local
        assert server.remote == client.local

    def test_inter_machine_connect(self, sim, lan):
        a, b, _ = lan
        client, server = connect_pair(sim, a, b)
        assert client.state == server.state == "ESTABLISHED"

    def test_listen_port_collision(self, host):
        host.stack.tcp_listen(5000)
        with pytest.raises(OSError):
            host.stack.tcp_listen(5000)

    def test_connect_to_closed_port_stalls(self, sim, host):
        # no listener: SYN is dropped and connect never completes
        def cli():
            conn = yield from host.stack.tcp_connect((host.stack.ip, 9999))
            return conn

        proc = sim.process(cli())
        sim.run(until=1.0)
        assert not proc.triggered

    def test_concurrent_connections_demuxed(self, sim, host):
        listener = host.stack.tcp_listen(5000)
        results = {}

        def srv():
            for i in range(2):
                conn = yield from listener.accept()
                results[f"s{i}"] = conn

        def cli(i):
            conn = yield from host.stack.tcp_connect((host.stack.ip, 5000))
            yield from conn.send(bytes([i]))
            results[f"c{i}"] = conn

        sp = sim.process(srv())
        sim.process(cli(0))
        sim.process(cli(1))
        sim.run_until_complete(sp, timeout=10)
        assert results["c0"].local != results["c1"].local


class TestDataTransfer:
    def test_byte_exact_delivery(self, sim, host):
        client, server = connect_pair(sim, host, host)
        payload = bytes(range(256)) * 100  # 25600 bytes

        def cli():
            yield from client.send(payload)

        def srv():
            return (yield from server.recv_exactly(len(payload)))

        sim.process(cli())
        assert run_gen(sim, srv()) == payload

    def test_bidirectional_transfer(self, sim, host):
        client, server = connect_pair(sim, host, host)

        def cli():
            yield from client.send(b"question")
            return (yield from client.recv_exactly(6))

        def srv():
            yield from server.recv_exactly(8)
            yield from server.send(b"answer")

        sim.process(srv())
        assert run_gen(sim, cli()) == b"answer"

    def test_segments_respect_gso_max(self, sim, host):
        client, server = connect_pair(sim, host, host)
        payload = bytes(DEFAULT_COSTS.gso_max * 3)

        def cli():
            yield from client.send(payload)

        def srv():
            yield from server.recv_exactly(len(payload))

        sim.process(cli())
        run_gen(sim, srv())
        assert client.segments_sent >= 3

    def test_mss_on_physical_path(self, sim, lan):
        a, b, _ = lan
        client, server = connect_pair(sim, a, b)
        payload = bytes(10000)

        def cli():
            yield from client.send(payload)

        def srv():
            yield from server.recv_exactly(len(payload))

        sim.process(cli())
        run_gen(sim, srv())
        # 10000 bytes over 1448-byte MSS -> at least 7 segments
        assert client.segments_sent >= 7

    def test_recv_partial_reads(self, sim, host):
        client, server = connect_pair(sim, host, host)

        def cli():
            yield from client.send(b"abcdefgh")

        chunks = []

        def srv():
            for _ in range(4):
                chunks.append((yield from server.recv(2)))

        sim.process(cli())
        run_gen(sim, srv())
        assert b"".join(chunks) == b"abcdefgh"

    def test_send_on_unconnected_raises(self, sim, host):
        conn_cls = host.stack.tcp
        client, _server = connect_pair(sim, host, host)
        client.state = "CLOSED"
        with pytest.raises(OSError):
            run_gen(sim, client.send(b"x"))


class TestFlowControl:
    def test_sender_respects_receiver_window(self, sim, host):
        client, server = connect_pair(
            sim, host, host, rcvbuf=8192, sndbuf=8192
        )
        # server never reads; client tries to push far more than rcvbuf
        sent = {}

        def cli():
            yield from client.send(bytes(100_000))
            sent["done"] = True

        sim.process(cli())
        sim.run(until=1.0)
        # send() blocks once SNDBUF fills and the closed window stops the pump
        assert "done" not in sent
        # receiver buffered roughly a window's worth, not everything
        assert len(server._recv_buf) <= 8192 + DEFAULT_COSTS.gso_max

    def test_window_reopens_when_app_reads(self, sim, host):
        client, server = connect_pair(sim, host, host, rcvbuf=8192)
        total = 100_000

        def cli():
            yield from client.send(bytes(total))
            return True

        def srv():
            got = 0
            while got < total:
                got += len((yield from server.recv(4096)))
            return got

        cp = sim.process(cli())
        sp = sim.process(srv())
        assert sim.run_until_complete(sp, timeout=60) == total
        assert sim.run_until_complete(cp, timeout=60)


class TestClose:
    def test_eof_after_close(self, sim, host):
        client, server = connect_pair(sim, host, host)

        def cli():
            yield from client.send(b"bye")
            yield from client.close()

        def srv():
            data = yield from server.recv(100)
            eof = yield from server.recv(100)
            return data, eof

        sim.process(cli())
        data, eof = run_gen(sim, srv())
        assert data == b"bye"
        assert eof == b""

    def test_full_close_reaches_closed_state(self, sim, host):
        client, server = connect_pair(sim, host, host)

        def cli():
            yield from client.close()
            yield client.closed_event

        def srv():
            data = yield from server.recv(10)
            assert data == b""
            yield from server.close()

        sim.process(srv())
        run_gen(sim, cli())
        sim.run(until=sim.now + 0.01)
        assert client.state == "CLOSED"
        assert server.state == "CLOSED"

    def test_connection_forgotten_after_close(self, sim, host):
        n_before = len(host.stack.tcp.connections)
        client, server = connect_pair(sim, host, host)

        def cli():
            yield from client.close()

        def srv():
            yield from server.recv(10)
            yield from server.close()

        sim.process(cli())
        sim.process(srv())
        sim.run(until=sim.now + 1.0)
        assert len(host.stack.tcp.connections) == n_before


class TestOutOfOrder:
    def test_ooo_segments_reassembled(self, sim, host):
        """Deliver segments to on_segment out of order directly."""
        client, server = connect_pair(sim, host, host)
        from repro.net.ethernet import IPPROTO_TCP
        from repro.net.packet import IPv4Header, Packet, TcpHeader, TCP_ACK, TCP_PSH

        base = server.rcv_nxt

        def seg(seq_off, data):
            hdr = TcpHeader(
                sport=client.local[1],
                dport=server.local[1],
                seq=base + seq_off,
                ack=server.snd_nxt,
                flags=TCP_ACK | TCP_PSH,
                window=8000,
            )
            ip = IPv4Header(client.local[0], server.local[0], IPPROTO_TCP)
            return Packet(payload=data, l4=hdr, ip=ip)

        def inject():
            yield from server.on_segment(seg(3, b"def"))
            yield from server.on_segment(seg(0, b"abc"))

        def srv():
            return (yield from server.recv_exactly(6))

        sim.process(inject())
        assert run_gen(sim, srv()) == b"abcdef"


@settings(max_examples=10, deadline=None)
@given(
    chunks=st.lists(st.binary(min_size=1, max_size=5000), min_size=1, max_size=8)
)
def test_stream_integrity_property(chunks):
    """Whatever write pattern the app uses, the receiver sees the exact
    concatenated byte stream."""
    sim = Simulator()
    cpus = CPUCores(sim, 2)
    node = Node(sim, cpus, DEFAULT_COSTS, "host")
    NetworkStack(node, IPv4Addr("10.0.0.1"))
    client, server = connect_pair(sim, node, node)
    total = b"".join(chunks)

    def cli():
        for chunk in chunks:
            yield from client.send(chunk)

    def srv():
        return (yield from server.recv_exactly(len(total)))

    sim.process(cli())
    proc = sim.process(srv())
    assert sim.run_until_complete(proc, timeout=120) == total


_BYTE_QUEUE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.binary(max_size=40)),
        st.tuples(st.just("take"), st.integers(0, 60)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(ops=_BYTE_QUEUE_OPS)
def test_byte_queue_matches_flat_buffer(ops):
    """Any sequence of appends and takes returns the same bytes as one
    flat buffer, and len() is the byte count."""
    queue = ByteQueue()
    model = bytearray()
    for op, arg in ops:
        if op == "append":
            queue.append(arg)
            model += arg
        else:
            assert queue.take(arg) == bytes(model[:arg])
            del model[:arg]
        assert len(queue) == len(model)
    assert queue.take(len(model) + 1) == bytes(model)


class TestListenerBacklog:
    def test_backlog_overflow_drops_offer(self, sim, host):
        """Connections beyond the accept backlog are silently not queued
        (the peer stays in limbo, as with a real SYN-queue overflow)."""
        listener = host.stack.tcp_listen(5800, backlog=1)
        conns = []

        def cli():
            conn = yield from host.stack.tcp_connect((host.stack.ip, 5800))
            conns.append(conn)

        for _ in range(3):
            sim.process(cli())
        sim.run(until=1.0)
        assert len(listener._ready) == 1
