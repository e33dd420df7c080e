"""Channel teardown with a non-empty waiting list.

Unloading a module while packets sit parked on a channel's waiting list
must not strand them or leave blocked senders waiting forever on a dead
channel: teardown hands the parked ENTRY_IPV4 wire images to a netfront
resend, empties the list, and fails space-waiters with
:class:`ChannelDeadError`.
"""

from repro import scenarios
from repro.core.channel import ENTRY_IPV4, ENTRY_STREAM, ChannelDeadError, ChannelState
from repro.net.addr import IPv4Addr
from repro.net.ethernet import IPPROTO_UDP
from repro.net.packet import IPv4Header, Packet, UdpHeader

from tests.conftest import run_gen

from .conftest import FAST, first_channel

PAYLOAD = b"parked-on-the-waiting-list"
PORT = 7400


def _l3_packet(src_ip, dst_ip):
    pkt = Packet(
        payload=PAYLOAD,
        l4=UdpHeader(5555, PORT, 8 + len(PAYLOAD)),
        ip=IPv4Header(
            src=IPv4Addr(str(src_ip)), dst=IPv4Addr(str(dst_ip)), proto=IPPROTO_UDP
        ),
    )
    pkt.ip.total_length = pkt.l3_len
    return pkt


class TestTeardownWithWaitingList:
    def test_unload_releases_buffers_fails_waiters_and_resends(self):
        scn = scenarios.xenloop(FAST)
        scn.warmup(max_wait=10.0)
        sim = scn.sim
        module = scn.xenloop_module(scn.node_a)
        channel = first_channel(scn, scn.node_a)
        assert channel.state is ChannelState.CONNECTED

        # The parked datagrams must still arrive after teardown, via the
        # standard netfront resend path.
        server = scn.node_b.stack.udp_socket(PORT)
        received = []

        def srv():
            while True:
                data, _ = yield from server.recvfrom()
                received.append(data)

        sim.process(srv(), name="teardown-server")

        # Park three scatter-gather packets (each joined once on park).
        for _ in range(3):
            channel._park(ENTRY_IPV4, _l3_packet(scn.ip_a, scn.ip_b).to_l3_parts())
        assert len(channel.waiting_list) == 3

        # And one sender blocked on waiting-list space (the bypass
        # variant's flow control): it must be failed, not stranded.
        failures = []

        def blocked_sender():
            try:
                yield channel.wait_waiting_space()
            except ChannelDeadError as exc:
                failures.append(exc)

        sim.process(blocked_sender(), name="blocked-sender")

        proc = sim.process(module.unload(), name="unload")
        sim.run_until_complete(proc, timeout=30.0)
        sim.run(until=sim.now + 1.0)

        assert not channel.waiting_list
        assert len(failures) == 1
        assert received == [PAYLOAD] * 3


class TestTeardownDelivery:
    def test_pending_entries_delivered_before_stream_death(self):
        """Entries still in the incoming FIFO at teardown are delivered
        exactly as the drain worker would: stream frames reach the
        stream handler before its ``None`` (channel gone), the packet
        reaches its socket, and every byte counts as received."""
        scn = scenarios.xenloop(FAST)
        scn.warmup(max_wait=10.0)
        sim = scn.sim
        ch_a = first_channel(scn, scn.node_a)
        ch_b = first_channel(scn, scn.node_b)
        got = []
        ch_b.stream_handler = got.append

        server = scn.node_b.stack.udp_socket(PORT)
        received = []

        def srv():
            data, _ = yield from server.recvfrom()
            received.append(data)

        sim.process(srv(), name="teardown-server")
        sim.run(until=sim.now + 0.001)

        # Push straight into the shared ring with no notify, so only the
        # teardown drain can find these entries.
        ipv4 = _l3_packet(scn.ip_a, scn.ip_b).to_l3_parts()
        entries = [
            (ENTRY_STREAM, (b"frame-1",)),
            (ENTRY_IPV4, ipv4),
            (ENTRY_STREAM, (b"frame-", memoryview(b"2"))),
        ]
        for msg_type, parts in entries:
            assert ch_a.out_fifo.push(parts, msg_type)
        nbytes = sum(len(p) for _t, parts in entries for p in parts)
        pkts_before, bytes_before = ch_b.pkts_received, ch_b.bytes_received

        run_gen(sim, ch_b.ctrl.teardown())
        sim.run(until=sim.now + 0.01)

        assert ch_b.state is ChannelState.CLOSED
        assert got == [b"frame-1", b"frame-2", None]
        assert received == [PAYLOAD]
        assert ch_b.pkts_received == pkts_before + 3
        assert ch_b.bytes_received == bytes_before + nbytes
