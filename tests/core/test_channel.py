"""Channel bootstrap, data transfer, waiting list, and teardown."""

import pytest

from repro.core.channel import ChannelState
from repro.core.protocol import CreateChannel
from repro.net.udp import MAX_DGRAM
from repro import scenarios
from tests.core.conftest import FAST, first_channel, udp_once


class TestBootstrap:
    def test_channels_connect_after_discovery(self, xl):
        ch_a = first_channel(xl, xl.node_a)
        ch_b = first_channel(xl, xl.node_b)
        assert ch_a.state is ChannelState.CONNECTED
        assert ch_b.state is ChannelState.CONNECTED

    def test_smaller_domid_is_listener(self, xl):
        ch_a = first_channel(xl, xl.node_a)
        ch_b = first_channel(xl, xl.node_b)
        listener = ch_a if ch_a.is_listener else ch_b
        connector = ch_b if ch_a.is_listener else ch_a
        assert listener.guest.domid < listener.peer_domid
        assert connector.guest.domid > connector.peer_domid

    def test_fifos_cross_linked(self, xl):
        """A's out FIFO is B's in FIFO: genuinely shared memory."""
        ch_a = first_channel(xl, xl.node_a)
        ch_b = first_channel(xl, xl.node_b)
        assert ch_a.out_fifo.region is ch_b.in_fifo.region
        assert ch_a.in_fifo.region is ch_b.out_fifo.region

    def test_connector_mapped_grants(self, xl):
        ch_a = first_channel(xl, xl.node_a)
        ch_b = first_channel(xl, xl.node_b)
        connector = ch_a if not ch_a.is_listener else ch_b
        # 2 descriptor pages + 2 * 16 data pages for k=13
        assert len(connector._mapped_grefs) == 2 + 2 * 16

    def test_event_channel_bound(self, xl):
        ch_a = first_channel(xl, xl.node_a)
        ch_b = first_channel(xl, xl.node_b)
        assert ch_a.port.peer is ch_b.port

    def test_bootstrap_triggered_by_traffic_not_discovery(self, xl_cold):
        """Discovery alone must not create channels; first traffic does."""
        scn = xl_cold
        scn.sim.run(until=1.0)  # several discovery periods, no traffic
        assert not scn.xenloop_module(scn.node_a).channels
        assert not scn.xenloop_module(scn.node_b).channels


class TestBootstrapRetry:
    def _drop_n_create_channels(self, scn, n):
        """Patch both modules to drop the first n CREATE_CHANNEL frames."""
        dropped = {"count": 0}
        for node in (scn.node_a, scn.node_b):
            module = scn.xenloop_module(node)
            original = module.send_control

            def send_control(dst_mac, msg, _orig=original):
                if isinstance(msg, CreateChannel) and dropped["count"] < n:
                    dropped["count"] += 1

                    def noop():
                        return
                        yield  # pragma: no cover

                    return noop()
                return _orig(dst_mac, msg)

            module.send_control = send_control
        return dropped

    def test_listener_retries_lost_create(self, xl_cold):
        scn = xl_cold
        dropped = self._drop_n_create_channels(scn, 1)
        scn.warmup(max_wait=10.0)
        assert dropped["count"] == 1
        assert first_channel(scn, scn.node_a).state is ChannelState.CONNECTED

    def test_bootstrap_gives_up_after_retries(self, xl_cold):
        scn = xl_cold
        self._drop_n_create_channels(scn, 10_000)
        # traffic still flows (standard path); channels never connect
        scn.sim.run(until=1.0)
        data = udp_once(scn, b"fallback", port=7199)
        assert data == b"fallback"
        scn.sim.run(until=scn.sim.now + 1.0)
        module_a = scn.xenloop_module(scn.node_a)
        assert not any(
            ch.state is ChannelState.CONNECTED for ch in module_a.channels.values()
        )
        # the listener cleaned up its failed bootstrap grants
        listener = min((scn.node_a, scn.node_b), key=lambda n: n.domid)
        assert listener.grant_table.active_entries == 0


class TestDataTransfer:
    def test_udp_payload_via_channel(self, xl):
        payload = bytes(range(256)) * 8
        ch_a = first_channel(xl, xl.node_a)
        sent_before = ch_a.pkts_sent
        assert udp_once(xl, payload) == payload
        assert ch_a.pkts_sent == sent_before + 1

    def test_channel_bypasses_bridge(self, xl):
        machine = xl.machines[0]
        fwd_before = machine.bridge.frames_forwarded + machine.bridge.frames_flooded
        udp_once(xl, b"direct")
        fwd_after = machine.bridge.frames_forwarded + machine.bridge.frames_flooded
        assert fwd_after == fwd_before  # no Dom0 involvement on the data path

    def test_oversized_packet_falls_back(self, xl):
        module_a = xl.xenloop_module(xl.node_a)
        too_big_before = module_a.pkts_too_big
        payload = bytes(MAX_DGRAM)  # 65507 B datagram: L3 > FIFO capacity
        assert udp_once(xl, payload, port=7101, timeout=10.0) == payload
        assert module_a.pkts_too_big > too_big_before

    def test_bidirectional_traffic(self, xl):
        sim = xl.sim
        a_sock = xl.node_a.stack.udp_socket(7102)
        b_sock = xl.node_b.stack.udp_socket(7102)

        def a_side():
            yield from a_sock.sendto(b"from-a", (xl.ip_b, 7102))
            data, _ = yield from a_sock.recvfrom()
            return data

        def b_side():
            data, _ = yield from b_sock.recvfrom()
            yield from b_sock.sendto(b"from-b", (xl.ip_a, 7102))

        sim.process(b_side())
        proc = sim.process(a_side())
        assert sim.run_until_complete(proc, timeout=5) == b"from-b"
        ch_b = first_channel(xl, xl.node_b)
        assert ch_b.pkts_sent >= 1  # B used its own outgoing FIFO

    def test_notification_coalescing_under_burst(self, xl):
        sim = xl.sim
        ch_a = first_channel(xl, xl.node_a)
        server = xl.node_b.stack.udp_socket(7103, rcvbuf=1 << 22)
        client = xl.node_a.stack.udp_socket()

        def cli():
            for _ in range(200):
                yield from client.sendto(bytes(1000), (xl.ip_b, 7103))

        proc = sim.process(cli())
        sim.run_until_complete(proc, timeout=30)
        sim.run(until=sim.now + 0.1)
        assert server.rx_msgs == 200
        # 1-bit coalescing: far fewer upcalls than notifies
        port_b = ch_a.port.peer
        assert port_b.upcalls < ch_a.notifies


class TestWaitingList:
    def test_full_fifo_routes_through_waiting_list(self, xl):
        """A packet that finds the FIFO full goes to the waiting list and
        is flushed on the space-available notification, preserving order
        and losing nothing (paper Sect. 3.1)."""
        sim = xl.sim
        ch_a = first_channel(xl, xl.node_a)
        # Stuff the outgoing FIFO with filler entries (unknown type: the
        # receiver frees the slots but doesn't deliver them).  In real
        # operation the peer always has a pending notify by the time the
        # FIFO is full; the direct fill bypassed that, so notify once.
        while ch_a.out_fifo.push((bytes(2000),), msg_type=99):
            pass
        assert ch_a.out_fifo.push_failures > 0
        xl.node_a.machine.hypervisor.evtchn.notify(ch_a.port)

        assert udp_once(xl, b"queued-behind-full-fifo", port=7104) == (
            b"queued-behind-full-fifo"
        )
        assert not ch_a.waiting_list  # flushed after space freed

    def test_order_preserved_behind_waiting_list(self, xl):
        sim = xl.sim
        ch_a = first_channel(xl, xl.node_a)
        while ch_a.out_fifo.push((bytes(2000),), msg_type=99):
            pass
        xl.node_a.machine.hypervisor.evtchn.notify(ch_a.port)
        server = xl.node_b.stack.udp_socket(7114, rcvbuf=1 << 22)
        client = xl.node_a.stack.udp_socket()
        count = 50

        def cli():
            for i in range(count):
                yield from client.sendto(i.to_bytes(4, "big"), (xl.ip_b, 7114))

        got = []

        def srv():
            for _ in range(count):
                data, _ = yield from server.recvfrom()
                got.append(int.from_bytes(data, "big"))

        sim.process(cli())
        proc = sim.process(srv())
        sim.run_until_complete(proc, timeout=30)
        assert got == list(range(count))


class TestTeardown:
    def test_unload_tears_down_and_falls_back(self, xl):
        sim = xl.sim
        module_a = xl.xenloop_module(xl.node_a)
        module_b = xl.xenloop_module(xl.node_b)
        proc = sim.process(module_a.unload())
        sim.run_until_complete(proc, timeout=5)
        sim.run(until=sim.now + 0.1)
        assert not module_a.channels
        assert not module_b.channels  # peer disengaged via inactive flag
        # traffic continues transparently on the standard path
        assert udp_once(xl, b"post-unload", port=7105) == b"post-unload"

    def test_unload_revokes_grants(self, xl):
        sim = xl.sim
        listener_node = min((xl.node_a, xl.node_b), key=lambda n: n.domid)
        module = xl.xenloop_module(listener_node)
        proc = sim.process(module.unload())
        sim.run_until_complete(proc, timeout=5)
        sim.run(until=sim.now + 0.1)
        assert listener_node.grant_table.active_entries == 0

    def test_unload_removes_advert(self, xl):
        sim = xl.sim
        module_a = xl.xenloop_module(xl.node_a)
        proc = sim.process(module_a.unload())
        sim.run_until_complete(proc, timeout=5)
        machine = xl.machines[0]
        assert not machine.xenstore.exists(
            0, f"/local/domain/{xl.node_a.domid}/xenloop"
        )

    def test_peer_prunes_after_advert_removal(self, xl):
        """Soft state: once A's advert is gone, the next announcement no
        longer lists A, and B tears the channel down."""
        sim = xl.sim
        module_a = xl.xenloop_module(xl.node_a)
        module_b = xl.xenloop_module(xl.node_b)
        proc = sim.process(module_a.unload())
        sim.run_until_complete(proc, timeout=5)
        sim.run(until=sim.now + 3 * FAST.discovery_period)
        assert xl.node_a.mac not in module_b.mapping

    def test_guest_shutdown_cleans_up(self, xl):
        sim = xl.sim
        module_b = xl.xenloop_module(xl.node_b)
        proc = sim.process(xl.node_b.shutdown())
        sim.run_until_complete(proc, timeout=5)
        sim.run(until=sim.now + 0.1)
        module_a = xl.xenloop_module(xl.node_a)
        assert not module_a.channels
        assert not module_b.channels


class TestIdleReaper:
    def test_idle_channel_torn_down(self):
        scn = scenarios.xenloop(FAST)
        # Rebuild modules with an idle timeout.
        from repro.core.module import XenLoopModule

        sim = scn.sim
        for node in (scn.node_a, scn.node_b):
            module = scn.modules[node.name]
            proc = sim.process(module.unload())
            sim.run_until_complete(proc, timeout=5)
            scn.modules[node.name] = XenLoopModule(node, idle_timeout=0.5)
        scn.warmup(max_wait=10.0)
        assert scn.xenloop_module(scn.node_a).channels
        sim.run(until=sim.now + 2.0)  # idle far beyond the timeout
        assert not scn.xenloop_module(scn.node_a).channels
        assert not scn.xenloop_module(scn.node_b).channels
