"""XenLoopModule: hook dispatch, transparency, statistics, validation."""

import pytest

from repro.core.channel import ChannelState
from repro.core.module import XenLoopModule
from repro.net.addr import IPv4Addr
from tests.core.conftest import FAST, first_channel, udp_once
from repro import scenarios


class TestLoading:
    def test_requires_networked_guest(self, sim):
        from repro.calibration import DEFAULT_COSTS
        from repro.xen.machine import XenMachine

        machine = XenMachine(sim, DEFAULT_COSTS, "m0")
        guest = machine.create_guest("vm1")  # no IP -> no stack
        with pytest.raises(ValueError):
            XenLoopModule(guest)

    def test_advert_written_on_load(self, xl_cold):
        scn = xl_cold
        scn.sim.run(until=0.05)
        machine = scn.machines[0]
        path = f"/local/domain/{scn.node_a.domid}/xenloop"
        assert machine.xenstore.read(0, path) == str(scn.node_a.mac)

    def test_hook_registered(self, xl_cold):
        from repro.net.netfilter import HookPoint

        assert xl_cold.node_a.stack.netfilter.count(HookPoint.POST_ROUTING) == 1


class TestDispatch:
    def test_traffic_before_discovery_uses_standard_path(self, xl_cold):
        scn = xl_cold
        data = udp_once(scn, b"early", port=7301)
        assert data == b"early"
        module_a = scn.xenloop_module(scn.node_a)
        assert module_a.pkts_via_channel == 0

    def test_traffic_after_connect_uses_channel(self, xl):
        module_a = xl.xenloop_module(xl.node_a)
        before = module_a.pkts_via_channel
        udp_once(xl, b"direct", port=7302)
        assert module_a.pkts_via_channel > before

    def test_channel_traffic_never_reaches_the_vif(self, xl):
        """Transparency: with the channel connected, UDP data is stolen
        before the device -- the vif transmits nothing."""
        vif = xl.node_a.netfront.vif
        before = vif.tx_packets
        assert udp_once(xl, b"invisible", port=7305) == b"invisible"
        xl.sim.run(until=xl.sim.now + 0.05)
        assert vif.tx_packets == before

    def test_netfront_traffic_reaches_the_vif(self):
        scn = scenarios.netfront_netback(FAST)
        scn.warmup()
        vif = scn.node_a.netfront.vif
        before = vif.tx_packets
        assert udp_once(scn, b"visible", port=7306) == b"visible"
        assert vif.tx_packets > before

    def test_loopback_traffic_not_intercepted(self, xl):
        """Packets to the guest's own address go via lo, never the hook."""
        module_a = xl.xenloop_module(xl.node_a)
        before = module_a.pkts_via_channel + module_a.pkts_via_standard
        sim = xl.sim
        sock_a = xl.node_a.stack.udp_socket(7303)
        sock_b = xl.node_a.stack.udp_socket()

        def gen():
            yield from sock_b.sendto(b"self", (xl.ip_a, 7303))
            data, _ = yield from sock_a.recvfrom()
            return data

        proc = sim.process(gen())
        assert sim.run_until_complete(proc, timeout=5) == b"self"
        after = module_a.pkts_via_channel + module_a.pkts_via_standard
        assert after == before

    def test_stats_shape(self, xl):
        stats = xl.xenloop_module(xl.node_a).stats()
        assert set(stats) == {
            "via_channel",
            "via_standard",
            "too_big",
            "channels",
            "announcements",
        }
        assert stats["channels"] == 1

    def test_tcp_connection_migrates_to_channel_midstream(self):
        """A TCP connection opened BEFORE the channel exists keeps working
        when later packets switch to the channel (seamless switch)."""
        scn = scenarios.xenloop(FAST)
        sim = scn.sim
        listener = scn.node_b.stack.tcp_listen(7304)
        state = {}

        def srv():
            conn = yield from listener.accept()
            total = 0
            while total < 200_000:
                data = yield from conn.recv(65536)
                if not data:
                    break
                total += len(data)
            state["total"] = total

        def cli():
            conn = yield from scn.node_a.stack.tcp_connect((scn.ip_b, 7304))
            state["conn"] = conn
            # send some data pre-channel
            sent = 0
            yield from conn.send(bytes(50_000))
            sent += 50_000
            # wait until the channel connects (discovery + bootstrap)
            while True:
                module = scn.xenloop_module(scn.node_a)
                if any(
                    ch.state is ChannelState.CONNECTED
                    for ch in module.channels.values()
                ):
                    break
                yield sim.timeout(FAST.discovery_period / 2)
                yield from conn.send(bytes(1000))  # keep traffic flowing
                sent += 1000
            yield from conn.send(bytes(200_000 - sent))

        sp = sim.process(srv())
        sim.process(cli())
        sim.run_until_complete(sp, timeout=120)
        assert state["total"] == 200_000
        module_a = scn.xenloop_module(scn.node_a)
        assert module_a.pkts_via_channel > 0
        assert module_a.pkts_via_standard > 0


class TestThreeGuests:
    def test_pairwise_channels(self):
        """Three co-resident guests form three independent channels."""
        scn = scenarios.xenloop(FAST)
        sim = scn.sim
        scn.warmup(max_wait=10.0)  # vm1<->vm2 channel first
        machine = scn.machines[0]
        vm3 = machine.create_guest("vm3", ip=IPv4Addr("10.0.0.3"))
        module3 = XenLoopModule(vm3)

        # vm3 <-> vm1 and vm3 <-> vm2 channels on first traffic
        for dst_node, dst_ip, port in (
            (scn.node_a, scn.ip_a, 7401),
            (scn.node_b, scn.ip_b, 7402),
        ):
            server = dst_node.stack.udp_socket(port)
            client = vm3.stack.udp_socket()

            def exchange(c=client, s=server, ip=dst_ip, p=port):
                yield from c.sendto(b"hi", (ip, p))
                data, _ = yield from s.recvfrom()
                return data

            # repeat traffic until the channel to this peer connects,
            # then once more so a packet actually crosses it
            connected = False
            for _ in range(30):
                proc = sim.process(exchange())
                sim.run_until_complete(proc, timeout=5)
                if connected:
                    break
                sim.run(until=sim.now + FAST.discovery_period / 2)
                connected = any(
                    ch.state is ChannelState.CONNECTED
                    and ch.peer_mac == dst_node.mac
                    for ch in module3.channels.values()
                )
        assert len(module3.channels) == 2
        assert module3.pkts_via_channel > 0
        # each peer also holds a channel back to vm3
        for node in (scn.node_a, scn.node_b):
            peer_module = scn.xenloop_module(node)
            assert vm3.mac in peer_module.channels
