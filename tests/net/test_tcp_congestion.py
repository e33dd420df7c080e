"""TCP congestion control (slow start / AIMD / fast retransmit), the
ACK-livelock fixes (duplicate re-ACK, RST on demux miss), backlog
overflow, and wake-all-on-EOF.

Loss is injected with dropping netfilter hooks so every recovery path
runs deterministically.  Congestion tests build their own LAN on the
physical NIC, whose MSS-sized segments make IW10 a 10-segment flight.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import DEFAULT_COSTS
from repro.net.addr import IPv4Addr, MacAddr
from repro.net.netfilter import HookPoint, Verdict
from repro.net.nic import EthernetSwitch, PhysNIC
from repro.net.node import Node
from repro.net.packet import TcpHeader
from repro.net.stack import NetworkStack
from repro.net.tcp import ESTABLISHED, INITIAL_WINDOW, TcpConnection
from repro.sim.engine import Simulator
from repro.sim.resources import CPUCores
from tests.net.test_tcp import connect_pair
from tests.net.test_tcp_retransmit import _Dropper

MSS = DEFAULT_COSTS.mss  # PhysNIC path: no GSO, mtu 1500 -> eff_mss == mss


def make_lan(sim, costs):
    """Two hosts on a switch built with ``costs`` (the shared ``lan``
    fixture hard-codes DEFAULT_COSTS)."""
    switch = EthernetSwitch(sim, costs)
    nodes = []
    for i in range(2):
        cpus = CPUCores(sim, 2)
        node = Node(sim, cpus, costs, f"cc{i}")
        NetworkStack(node, IPv4Addr(f"10.9.0.{i + 1}"))
        nic = PhysNIC(node, costs, f"cc{i}.eth0", MacAddr(0x020000009901 + i))
        nic.connect(switch)
        node.stack.add_device(nic)
        nodes.append(node)
    return nodes[0], nodes[1]


def stream(sim, client, server, payload, timeout=30):
    """Push ``payload`` client->server; returns the received bytes."""

    def cli():
        yield from client.send(payload)

    def srv():
        return (yield from server.recv_exactly(len(payload)))

    sim.process(cli())
    proc = sim.process(srv())
    return sim.run_until_complete(proc, timeout=timeout)


class TestInitialWindow:
    """Every connection slow-starts from RFC 6928's IW10."""

    def test_cwnd_starts_at_iw10(self, sim, host):
        client, server = connect_pair(sim, host, host)
        assert INITIAL_WINDOW == 10
        assert client.cwnd == 10 * DEFAULT_COSTS.mss
        assert server.cwnd == 10 * DEFAULT_COSTS.mss
        assert not client.cwnd_trace

    def test_lossless_stream_grows_monotonically(self, sim, host):
        client, server = connect_pair(sim, host, host)
        assert stream(sim, client, server, bytes(200_000)) == bytes(200_000)
        values = [v for _, v in client.cwnd_trace]
        assert values, "slow start must grow cwnd"
        assert values == sorted(values)
        assert client.cwnd > 10 * DEFAULT_COSTS.mss
        assert client.cwnd <= DEFAULT_COSTS.tcp_window
        assert client.retransmissions == 0
        assert client.dup_acks_rcvd == 0
        assert server.dup_segments == 0


class TestSlowStartAimd:
    def test_slow_start_doubles_per_rtt(self, sim):
        a, b = make_lan(sim, DEFAULT_COSTS)
        client, server = connect_pair(sim, a, b)
        assert client.cwnd == 10 * MSS
        payload = bytes(range(256)) * 1024  # 256 KB
        assert stream(sim, client, server, payload) == payload
        # Every full-MSS ACK grows cwnd by one MSS during slow start.
        assert client.cwnd > 10 * MSS
        assert client.cwnd_trace, "growth must be recorded"
        values = [v for _, v in client.cwnd_trace]
        assert values == sorted(values)  # lossless run: monotone growth
        assert client.retransmissions == 0

    def test_congestion_avoidance_linear_above_ssthresh(self, sim):
        a, b = make_lan(sim, DEFAULT_COSTS)
        client, server = connect_pair(sim, a, b)
        client.ssthresh = client.cwnd  # already at ssthresh: pure CA from here
        payload = bytes(100_000)
        assert stream(sim, client, server, payload) == payload
        growth = [after - before for (_, before), (_, after) in
                  zip(client.cwnd_trace, list(client.cwnd_trace)[1:])]
        assert growth, "CA growth must be recorded"
        # Additive increase: each step is ~mss*mss/cwnd, well below one
        # MSS once cwnd has a few segments in it.
        assert all(0 < g <= MSS for g in growth)

    def test_fast_retransmit_on_triple_dup_ack(self, sim):
        a, b = make_lan(sim, DEFAULT_COSTS)
        client, server = connect_pair(sim, a, b)
        dropper = _Dropper(1)  # first data segment dies once
        a.stack.netfilter.register(HookPoint.POST_ROUTING, dropper)
        payload = bytes(range(256)) * 256  # 64 KB >> 10 segments
        assert stream(sim, client, server, payload) == payload
        assert dropper.dropped
        assert client.fast_retransmits == 1
        assert client.rto_retransmits == 0  # dup ACKs beat the timer
        assert client.dup_acks_rcvd >= DEFAULT_COSTS.tcp_dupack_threshold
        assert not client._in_fast_recovery  # recovery completed
        assert client.cwnd <= client._cwnd_cap

    def test_rto_collapses_cwnd_to_one_segment(self, sim):
        a, b = make_lan(sim, DEFAULT_COSTS)
        client, server = connect_pair(sim, a, b)
        dropper = _Dropper(1)
        a.stack.netfilter.register(HookPoint.POST_ROUTING, dropper)
        # One lone segment: no following data, so no dup ACKs -- only
        # the retransmit timer can recover it.
        payload = bytes(1000)
        assert stream(sim, client, server, payload) == payload
        assert client.rto_retransmits == 1
        assert client.fast_retransmits == 0
        assert min(v for _, v in client.cwnd_trace) == MSS  # collapse
        assert client.ssthresh == 2 * MSS  # max(flight//2, 2*mss)


class TestAckLivelock:
    """The PR's bugfix half: a peer whose ACKs die must never be left
    retransmitting forever."""

    def test_duplicate_segment_draws_ack_and_counter(self, sim, host):
        client, server = connect_pair(sim, host, host)
        # Kill two pure ACKs: the client RTOs and resends bytes the
        # server already buffered.  The duplicates MUST be re-ACKed
        # (and counted) -- ignoring them is the livelock.
        dropper = _Dropper(
            2, match=lambda pkt: len(pkt.payload) == 0 and pkt.l4.flags == 0x10
        )
        host.stack.netfilter.register(HookPoint.POST_ROUTING, dropper)
        payload = bytes(range(256)) * 64
        assert stream(sim, client, server, payload) == payload
        # The reader returned as soon as the bytes landed; keep running
        # so the client's retransmit loop plays out against the re-ACKs.
        sim.run(until=sim.now + 4 * DEFAULT_COSTS.tcp_rto)
        assert dropper.dropped
        assert server.dup_segments >= 1
        assert client.retransmissions <= 4  # re-ACK bounds the loop
        assert not client._retx_buf  # fully acked: the loop terminated

    def test_final_ack_loss_draws_rst(self, sim):
        """Drop the very last ACK of the close sequence: the server is
        left in LAST_ACK and the client has forgotten the connection.
        The server's next segment into the void must draw a RST that
        releases it, instead of it looping once per RTO forever."""
        a, b = make_lan(sim, DEFAULT_COSTS)
        client, server = connect_pair(sim, a, b)
        # The final ACK is the only pure ACK the client emits after its
        # own side reached CLOSED.
        dropper = _Dropper(
            1,
            match=lambda pkt: len(pkt.payload) == 0
            and pkt.l4.flags == 0x10
            and client.state == "CLOSED",
        )
        a.stack.netfilter.register(HookPoint.POST_ROUTING, dropper)
        t0 = sim.now

        def cli():
            yield from client.send(b"bye")
            yield from client.close()

        def srv():
            assert (yield from server.recv(10)) == b"bye"
            assert (yield from server.recv(10)) == b""
            yield from server.close()
            yield server.closed_event

        sim.process(cli())
        proc = sim.process(srv())
        sim.run_until_complete(proc, timeout=30)
        assert dropper.dropped, "the final ACK really was lost"
        assert server.state == "CLOSED"
        assert server.reset_by_peer
        assert a.stack.tcp.rsts_sent == 1
        assert a.stack.tcp.rx_no_match == 1
        # Bounded: the demux-miss RST releases the server without a
        # retransmit storm -- well before go-back-N could loop twice.
        assert server.retransmissions <= 1
        assert sim.now - t0 < 2 * DEFAULT_COSTS.tcp_rto

    def test_fin_retransmit_into_void_draws_rst(self, sim):
        """The pure go-back-N livelock shape: the peer is gone (state
        forgotten -- crashed, or aborted on backlog overflow) while we
        still owe it a FIN.  Every FIN retransmission used to vanish
        unanswered; now the demux miss answers RST and the retransmit
        loop ends."""
        a, b = make_lan(sim, DEFAULT_COSTS)
        client, server = connect_pair(sim, a, b)
        # The client vanishes without a trace: no FIN, no RST, the
        # demux entry is simply gone.
        client._become_closed()
        assert not a.stack.tcp.connections

        def srv():
            yield from server.close()
            yield server.closed_event

        t0 = sim.now
        proc = sim.process(srv())
        sim.run_until_complete(proc, timeout=30)
        assert server.state == "CLOSED"
        assert server.reset_by_peer
        assert a.stack.tcp.rsts_sent == 1
        # The very first FIN already hits the miss: zero retransmits.
        assert server.retransmissions == 0
        assert sim.now - t0 < DEFAULT_COSTS.tcp_rto

    def test_retx_counters_roll_into_layer_totals(self, sim):
        a, b = make_lan(sim, DEFAULT_COSTS)
        client, server = connect_pair(sim, a, b)
        dropper = _Dropper(1)  # one lost data segment -> fast retransmit
        a.stack.netfilter.register(HookPoint.POST_ROUTING, dropper)
        payload = bytes(range(256)) * 256
        assert stream(sim, client, server, payload) == payload
        retx = client.retransmissions
        assert retx >= 1

        def both():
            yield from client.close()
            yield from server.close()
            yield client.closed_event

        proc = sim.process(both())
        sim.run_until_complete(proc, timeout=30)
        sim.run(until=sim.now + 2 * DEFAULT_COSTS.tcp_rto)
        totals = a.stack.tcp.congestion_totals()
        assert totals["conns"] == 1
        # The connection is forgotten, but its counters rolled up.
        assert totals["retransmissions"] == client.retransmissions
        assert totals["fast_retransmits"] == 1


class TestBacklogOverflow:
    def test_overflow_forgets_conn_and_peer_gets_rst(self, sim, host):
        listener = host.stack.tcp_listen(5710, backlog=1)
        clients = []

        def connect_one():
            conn = yield from host.stack.tcp_connect((host.stack.ip, 5710))
            clients.append(conn)

        procs = [sim.process(connect_one()) for _ in range(3)]
        for p in procs:
            sim.run_until_complete(p, timeout=10)
        # connect() returns on SYN-ACK; drain so the servers' final
        # handshake ACKs demux and the accept queue fills/overflows.
        sim.run(until=sim.now + 0.01)
        assert listener.backlog_drops == 2
        assert host.stack.tcp.backlog_drops == 2
        # Exactly one server-side conn survives (queued for accept);
        # the dropped ones are forgotten, not leaked in the demux table.
        assert len(host.stack.tcp.connections) == len(clients) + 1

        # A dropped peer's next segment hits the demux miss and draws a
        # RST; its blocked reader wakes with EOF instead of hanging.
        victim = clients[-1]

        def poke():
            yield from victim.send(b"hello?")
            return (yield from victim.recv(10))

        proc = sim.process(poke())
        got = sim.run_until_complete(proc, timeout=30)
        assert got == b""
        assert victim.state == "CLOSED"
        assert victim.reset_by_peer
        assert host.stack.tcp.rsts_sent >= 1

    def test_within_backlog_unaffected(self, sim, host):
        listener = host.stack.tcp_listen(5711, backlog=4)
        done = []

        def connect_one():
            done.append((yield from host.stack.tcp_connect((host.stack.ip, 5711))))

        procs = [sim.process(connect_one()) for _ in range(3)]
        for p in procs:
            sim.run_until_complete(p, timeout=10)
        sim.run(until=sim.now + 0.01)
        assert listener.backlog_drops == 0
        assert len(listener._ready) == 3


class TestWakeAll:
    def test_eof_wakes_every_blocked_reader(self, sim, host):
        client, server = connect_pair(sim, host, host)
        results = []

        def reader():
            results.append((yield from server.recv(10)))

        r1 = sim.process(reader())
        r2 = sim.process(reader())
        sim.run(until=sim.now + 0.01)  # both block on an empty buffer

        def closer():
            yield from client.close()

        sim.process(closer())
        sim.run_until_complete(r1, timeout=10)
        sim.run_until_complete(r2, timeout=10)
        assert results == [b"", b""]

    def test_single_segment_wakes_single_reader(self, sim, host):
        client, server = connect_pair(sim, host, host)
        woken = []

        def reader(tag):
            woken.append((tag, (yield from server.recv(100))))

        r1 = sim.process(reader("r1"))
        sim.process(reader("r2"))
        sim.run(until=sim.now + 0.01)

        def push():
            yield from client.send(b"x")

        sim.process(push())
        sim.run_until_complete(r1, timeout=10)
        # One payload, one wakeup: the second reader stays blocked.
        assert woken == [("r1", b"x")]


def _bare_conn():
    """A receive-side connection with no peer: _rx_data is yield-free,
    so interleavings can be driven directly."""
    sim = Simulator()
    cpus = CPUCores(sim, 1)
    node = Node(sim, cpus, DEFAULT_COSTS, "prop")
    NetworkStack(node, IPv4Addr("10.9.9.1"))
    conn = TcpConnection(
        node.stack.tcp, (node.stack.ip, 1), (IPv4Addr("10.9.9.2"), 2)
    )
    conn.state = ESTABLISHED
    return conn


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_rx_data_survives_any_interleaving(data):
    """Property (satellite of the livelock fix): any ordering of the
    sender's segments -- with arbitrary duplication and the FIN anywhere
    -- reassembles the exact byte stream, raises EOF exactly once, and
    leaves no out-of-order state behind."""
    payload = bytes(range(256)) * data.draw(st.integers(1, 6), label="reps")
    n = len(payload)
    cuts = sorted(
        data.draw(
            st.sets(st.integers(1, n - 1), min_size=0, max_size=6), label="cuts"
        )
    )
    bounds = [0, *cuts, n]
    segments = [
        (bounds[i], payload[bounds[i] : bounds[i + 1]], False)
        for i in range(len(bounds) - 1)
    ]
    segments.append((n, b"", True))  # FIN
    dups = data.draw(
        st.lists(st.sampled_from(segments), max_size=5), label="dups"
    )
    order = data.draw(st.permutations(segments + dups), label="order")

    conn = _bare_conn()
    for seq, seg, fin in order:
        # Every payload/FIN segment demands an ACK, duplicates included.
        assert conn._rx_data(seq, seg, fin) is True
    assert conn._recv_buf.take(len(payload) + 1) == payload
    assert conn.bytes_received == n
    assert conn.rcv_nxt == n + 1  # FIN consumed its sequence number
    assert conn.eof
    assert not conn._ooo, "drain must consume the whole OOO buffer"
    if len(order) > len(segments):
        # At least one duplicate arrived strictly in-window somewhere
        # only if delivery order made it so -- but the counter must
        # never go negative or explode past the dup count.
        assert 0 <= conn.dup_segments <= len(order)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_rx_data_partial_overlap_trims(data):
    """Segments re-sent with a stale head (seq < rcv_nxt < end) must be
    trimmed, counted, and still advance the stream."""
    payload = bytes(range(200))
    conn = _bare_conn()
    first = data.draw(st.integers(10, 190), label="first")
    overlap = data.draw(st.integers(1, first), label="overlap")
    conn._rx_data(0, payload[:first], False)
    conn._rx_data(first - overlap, payload[first - overlap :], False)
    assert conn._recv_buf.take(len(payload) + 1) == payload
    assert conn.rcv_nxt == len(payload)
    assert conn.dup_segments == 1
