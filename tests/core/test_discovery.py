"""Soft-state domain discovery (Dom0 module + guest mapping tables)."""

import pytest

from repro import scenarios
from repro.core.discovery import DiscoveryModule
from tests.core.conftest import FAST


class TestCollation:
    def test_collate_reads_adverts(self, xl_cold):
        scn = xl_cold
        scn.sim.run(until=0.05)  # let modules write their adverts
        entries = scn.discoveries[0].collate()
        assert sorted(domid for domid, _mac in entries) == sorted(
            (scn.node_a.domid, scn.node_b.domid)
        )
        macs = {mac for _d, mac in entries}
        assert scn.node_a.mac in macs and scn.node_b.mac in macs

    def test_collate_ignores_non_advertising_guests(self, xl_cold):
        scn = xl_cold
        machine = scn.machines[0]
        machine.create_guest("vm3", ip=None)  # no stack, no module
        scn.sim.run(until=0.05)
        assert len(scn.discoveries[0].collate()) == 2

    def test_collate_skips_malformed_advert(self, xl_cold):
        scn = xl_cold
        machine = scn.machines[0]
        vm3 = machine.create_guest("vm3")
        machine.xenstore.write(0, f"/local/domain/{vm3.domid}/xenloop", "not-a-mac")
        scn.sim.run(until=0.05)
        assert len(scn.discoveries[0].collate()) == 2


class TestAnnouncements:
    def test_guests_learn_mapping(self, xl_cold):
        scn = xl_cold
        scn.sim.run(until=2 * FAST.discovery_period)
        module_a = scn.xenloop_module(scn.node_a)
        module_b = scn.xenloop_module(scn.node_b)
        assert module_a.mapping == {scn.node_b.mac: scn.node_b.domid}
        assert module_b.mapping == {scn.node_a.mac: scn.node_a.domid}

    def test_own_entry_excluded(self, xl_cold):
        scn = xl_cold
        scn.sim.run(until=2 * FAST.discovery_period)
        module_a = scn.xenloop_module(scn.node_a)
        assert scn.node_a.mac not in module_a.mapping

    def test_periodic_scanning(self, xl_cold):
        scn = xl_cold
        scn.sim.run(until=5 * FAST.discovery_period)
        assert scn.discoveries[0].scans >= 4

    def test_stopped_discovery_stops_announcing(self, xl_cold):
        scn = xl_cold
        scn.sim.run(until=2 * FAST.discovery_period)
        scn.discoveries[0].stop()
        sent = scn.discoveries[0].announcements_sent
        scn.sim.run(until=scn.sim.now + 3 * FAST.discovery_period)
        assert scn.discoveries[0].announcements_sent == sent

    def test_announcements_counted_by_guests(self, xl_cold):
        scn = xl_cold
        scn.sim.run(until=3 * FAST.discovery_period)
        assert scn.xenloop_module(scn.node_a).announcements_seen >= 2

    def test_one_serialization_per_scan(self, xl_cold):
        """The Announce is built and serialized once per scan; every
        recipient's frame carries the *identical* payload object."""
        scn = xl_cold
        bridge = scn.discoveries[0].machine.bridge
        captured = []
        real_input = bridge.input

        from repro.core.discovery import DOM0_MAC

        def tap(port, frame):
            if frame.eth is not None and frame.eth.src == DOM0_MAC:
                captured.append((scn.discoveries[0].scans, frame))
            return real_input(port, frame)

        bridge.input = tap
        try:
            scn.sim.run(until=3 * FAST.discovery_period)
        finally:
            bridge.input = real_input
        by_scan = {}
        for scan, frame in captured:
            by_scan.setdefault(scan, []).append(frame)
        multi = [frames for frames in by_scan.values() if len(frames) > 1]
        assert multi, "expected scans announcing to both guests"
        for frames in multi:
            first = frames[0].payload
            assert all(f.payload is first for f in frames)

    def test_third_guest_appears_in_mapping(self, xl_cold):
        scn = xl_cold
        scn.sim.run(until=2 * FAST.discovery_period)
        from repro.core.module import XenLoopModule
        from repro.net.addr import IPv4Addr

        machine = scn.machines[0]
        vm3 = machine.create_guest("vm3", ip=IPv4Addr("10.0.0.3"))
        XenLoopModule(vm3)
        scn.sim.run(until=scn.sim.now + 2 * FAST.discovery_period)
        module_a = scn.xenloop_module(scn.node_a)
        assert module_a.mapping.get(vm3.mac) == vm3.domid


class TestRoster:
    def test_roster_tracks_advertising_guests(self, xl_cold):
        scn = xl_cold
        assert scn.discoveries[0].roster == {}
        scn.sim.run(until=2 * FAST.discovery_period)
        assert scn.discoveries[0].roster == {
            scn.node_a.mac: scn.node_a.domid,
            scn.node_b.mac: scn.node_b.domid,
        }

    def test_unloaded_guest_leaves_roster(self, xl):
        scn = xl
        module_b = scn.xenloop_module(scn.node_b)
        proc = scn.sim.process(module_b.unload(), name="test-unload")
        scn.sim.run_until_complete(proc, timeout=5.0)
        scn.sim.run(until=scn.sim.now + 2 * FAST.discovery_period)
        assert scn.node_b.mac not in scn.discoveries[0].roster
        assert scn.node_a.mac in scn.discoveries[0].roster
