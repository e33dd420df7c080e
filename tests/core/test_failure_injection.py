"""Failure injection and races in the XenLoop control plane."""

import pytest

from repro import scenarios
from repro.core.channel import ChannelState
from repro.core.module import XenLoopModule
from repro.core.protocol import Announce, ChannelAck, CreateChannel, parse_message
from repro.net.ethernet import ETH_P_XENLOOP
from repro.net.packet import EthHeader, Packet
from tests.core.conftest import FAST, first_channel, udp_once


class TestBootstrapRaces:
    def test_simultaneous_initiation(self, xl_cold):
        """Both guests send first traffic in the same instant; exactly one
        channel pair must result (smaller-ID guest as listener)."""
        scn = xl_cold
        sim = scn.sim
        sim.run(until=2 * FAST.discovery_period)  # mappings populated
        a_sock = scn.node_a.stack.udp_socket(7601)
        b_sock = scn.node_b.stack.udp_socket(7601)

        # several packets each way: the first resolves ARP (standard
        # path), the next hits the hook and initiates bootstrap
        def from_a():
            for _ in range(3):
                yield from a_sock.sendto(b"a", (scn.ip_b, 7601))
                yield sim.timeout(0.001)

        def from_b():
            for _ in range(3):
                yield from b_sock.sendto(b"b", (scn.ip_a, 7601))
                yield sim.timeout(0.001)

        sim.process(from_a())
        sim.process(from_b())
        sim.run(until=sim.now + 1.0)
        module_a = scn.xenloop_module(scn.node_a)
        module_b = scn.xenloop_module(scn.node_b)
        assert len(module_a.channels) == 1
        assert len(module_b.channels) == 1
        ch_a = first_channel(scn, scn.node_a)
        ch_b = first_channel(scn, scn.node_b)
        assert ch_a.state is ChannelState.CONNECTED
        assert ch_b.state is ChannelState.CONNECTED
        assert ch_a.is_listener != ch_b.is_listener

    def test_duplicate_create_channel_reacked_when_connected(self, xl):
        """A listener retry arriving after the connector already mapped
        (lost ack) must re-trigger the ack without corrupting state.
        A genuine retry carries the listener's *current* transport, so
        the port number matches the one the connector is bound to."""
        scn = xl
        sim = scn.sim
        ch_a = first_channel(scn, scn.node_a)
        ch_b = first_channel(scn, scn.node_b)
        connector = ch_a if not ch_a.is_listener else ch_b
        module = scn.modules[connector.guest.name]
        listener = ch_b if not ch_a.is_listener else ch_a
        # Replay a create_channel at the connected connector.
        msg = CreateChannel(
            sender_domid=listener.guest.domid,
            gref_out=1,
            gref_in=2,
            evtchn_port=listener.port.port,
        )
        module.control.handle_create_channel(msg, listener.guest.mac)
        sim.run(until=sim.now + 0.1)
        assert connector.state is ChannelState.CONNECTED
        assert connector.port.peer is listener.port  # same transport
        assert udp_once(scn, b"still-works", port=7602) == b"still-works"

    def test_stale_create_channel_replaces_dead_transport(self, xl):
        """A create_channel whose port does NOT match the connector's
        bound transport means the listener rebuilt its side (retries
        exhausted, old port closed).  Blindly re-acking would leave both
        ends 'connected' over dead transports and the data path deaf
        forever -- the connector must tear its husk down and handshake
        against the new transport instead (the double-migration race in
        the churn scenarios)."""
        scn = xl
        sim = scn.sim
        ch_a = first_channel(scn, scn.node_a)
        ch_b = first_channel(scn, scn.node_b)
        connector = ch_a if not ch_a.is_listener else ch_b
        module = scn.modules[connector.guest.name]
        listener = ch_b if not ch_a.is_listener else ch_a
        msg = CreateChannel(
            sender_domid=listener.guest.domid,
            gref_out=1,
            gref_in=2,
            evtchn_port=999,  # no such port: a vanished transport
        )
        module.control.handle_create_channel(msg, listener.guest.mac)
        sim.run(until=sim.now + 0.1)
        # The stale CONNECTED husk is gone (the fabricated transport
        # cannot be mapped, so the reconnect fails cleanly) and the next
        # traffic re-initiates a working handshake from scratch.
        assert connector is not module.channels.get(listener.guest.mac)
        assert udp_once(scn, b"still-works", port=7602) == b"still-works"

    def test_connect_request_to_larger_id_ignored(self, xl_cold):
        """A misdirected connect_request (receiver has the larger ID) must
        not create a listener-side channel."""
        scn = xl_cold
        scn.sim.run(until=2 * FAST.discovery_period)
        big = max((scn.node_a, scn.node_b), key=lambda n: n.domid)
        small = min((scn.node_a, scn.node_b), key=lambda n: n.domid)
        module = scn.modules[big.name]
        from repro.core.protocol import ConnectRequest

        module.control.handle_connect_request(ConnectRequest(small.domid, small.mac))
        scn.sim.run(until=scn.sim.now + 0.2)
        assert not module.channels


class TestMalformedControlFrames:
    def _inject(self, scn, node, payload):
        sim = scn.sim
        peer = scn.node_b if node is scn.node_a else scn.node_a
        frame = Packet(
            payload=payload,
            eth=EthHeader(node.mac, peer.mac, ETH_P_XENLOOP),
        )
        node.stack.deliver(frame, node.netfront.vif)
        sim.run(until=sim.now + 0.05)

    def test_garbage_payload_dropped(self, xl):
        self._inject(xl, xl.node_a, b"\xff" * 40)
        assert udp_once(xl, b"survives", port=7603) == b"survives"

    def test_truncated_message_dropped(self, xl):
        self._inject(xl, xl.node_a, b"\x00")
        assert udp_once(xl, b"survives2", port=7604) == b"survives2"

    def test_unknown_message_type_dropped(self, xl):
        self._inject(xl, xl.node_a, b"\x00\x63" + bytes(10))
        assert udp_once(xl, b"survives3", port=7605) == b"survives3"

    def test_create_channel_with_bogus_grefs_fails_cleanly(self, xl_cold):
        """A create_channel naming grant refs that were never issued must
        abort the connector bootstrap without wedging the module."""
        scn = xl_cold
        sim = scn.sim
        sim.run(until=2 * FAST.discovery_period)
        connector_node = max((scn.node_a, scn.node_b), key=lambda n: n.domid)
        listener_node = min((scn.node_a, scn.node_b), key=lambda n: n.domid)
        module = scn.modules[connector_node.name]
        bogus = CreateChannel(
            sender_domid=listener_node.domid,
            gref_out=4242,
            gref_in=4343,
            evtchn_port=77,
        )
        module.control.handle_create_channel(bogus, listener_node.mac)
        sim.run(until=sim.now + 0.2)
        assert not any(
            ch.state is ChannelState.CONNECTED for ch in module.channels.values()
        )
        # traffic still flows via the standard path, and a real bootstrap
        # can still succeed afterwards
        assert udp_once(scn, b"fallback-ok", port=7606) == b"fallback-ok"
        scn.warmup(max_wait=10.0)
        assert first_channel(scn, connector_node).state is ChannelState.CONNECTED


class TestAnnouncementEdgeCases:
    def test_peer_domid_change_triggers_teardown(self, xl):
        """If an announcement maps the peer's MAC to a new domid (migrated
        away and back), the stale channel is torn down."""
        scn = xl
        sim = scn.sim
        module_a = scn.xenloop_module(scn.node_a)
        old_channel = first_channel(scn, scn.node_a)
        fake = Announce(
            sender_domid=0,
            entries=[(scn.node_b.domid + 40, scn.node_b.mac)],
        )
        module_a.control.handle_announce(fake)
        sim.run(until=sim.now + 0.2)
        assert old_channel.state is ChannelState.CLOSED

    def test_empty_announcement_prunes_everything(self, xl):
        scn = xl
        scn.discoveries[0].stop()  # no fresh announcements repopulating state
        module_a = scn.xenloop_module(scn.node_a)
        module_a.control.handle_announce(Announce(sender_domid=0, entries=[]))
        scn.sim.run(until=scn.sim.now + 0.2)
        assert not module_a.mapping
        assert not module_a.channels

    def test_announcement_roundtrips_through_wire_format(self, xl_cold):
        scn = xl_cold
        scn.sim.run(until=2 * FAST.discovery_period)
        module_a = scn.xenloop_module(scn.node_a)
        # mapping was populated from real parsed frames
        assert module_a.mapping == {scn.node_b.mac: scn.node_b.domid}


class TestEventChannelLossTolerance:
    def test_notify_after_peer_closed_port(self, xl):
        """Teardown race: one side notifies while the other has already
        closed its port; nothing crashes and the module recovers."""
        scn = xl
        sim = scn.sim
        ch_a = first_channel(scn, scn.node_a)
        ch_b = first_channel(scn, scn.node_b)
        # Close B's port behind A's back (harsher than a clean teardown).
        scn.node_b.machine.hypervisor.evtchn.close(ch_b.port)
        # A sends: packet goes into the FIFO, notify is lost.  The drain
        # never happens, but nothing deadlocks, and the subsequent
        # announcement-driven teardown cleans up.
        sock = scn.node_a.stack.udp_socket()

        def send():
            yield from sock.sendto(b"lost", (scn.ip_b, 7607))

        proc = sim.process(send())
        sim.run_until_complete(proc, timeout=5)
        sim.run(until=sim.now + 0.5)
        assert ch_a.state in (ChannelState.CONNECTED, ChannelState.CLOSED)
