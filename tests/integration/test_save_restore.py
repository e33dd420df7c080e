"""Guest save/restore with XenLoop loaded (paper Sect. 3.4, last line)."""

import pytest

from repro import scenarios
from repro.core.channel import ChannelState
from repro.xen.migration import save_restore
from tests.core.conftest import FAST, first_channel, udp_once


@pytest.fixture
def xl():
    scn = scenarios.xenloop(FAST)
    scn.warmup(max_wait=10.0)
    return scn


class TestSaveRestore:
    def _save_restore(self, scn, guest, pause=0.5):
        proc = scn.sim.process(save_restore(guest, pause))
        return scn.sim.run_until_complete(proc, timeout=30)

    def test_channels_torn_down_on_save(self, xl):
        scn = xl
        old = first_channel(scn, scn.node_b)
        self._save_restore(scn, scn.node_b)
        scn.sim.run(until=scn.sim.now + 0.2)
        assert old.state is ChannelState.CLOSED
        assert not scn.xenloop_module(scn.node_a).channels

    def test_new_domid_after_restore(self, xl):
        scn = xl
        old_domid = scn.node_b.domid
        new_domid = self._save_restore(scn, scn.node_b)
        assert new_domid != old_domid
        assert scn.node_b.domid == new_domid

    def test_readvertises_and_reconnects(self, xl):
        scn = xl
        self._save_restore(scn, scn.node_b)
        machine = scn.machines[0]
        scn.sim.run(until=scn.sim.now + 0.1)
        assert machine.xenstore.exists(
            0, f"/local/domain/{scn.node_b.domid}/xenloop"
        )
        # after discovery + traffic, the channel re-forms with the new id
        scn.warmup(max_wait=10.0)
        ch = first_channel(scn, scn.node_a)
        assert ch.peer_domid == scn.node_b.domid

    def test_traffic_flows_during_and_after(self, xl):
        scn = xl
        sim = scn.sim
        # arrange a slow save/restore and poke traffic mid-pause
        proc = sim.process(save_restore(scn.node_b, pause=1.0))
        sim.run(until=sim.now + 0.3)
        # guest is saved: packets are held, not lost (sender blocks)
        sock = scn.node_a.stack.udp_socket()
        server_sock = None  # server socket belongs to a saved guest
        send_proc = sim.process(sock.sendto(b"mid-save", (scn.ip_b, 8701)))
        sim.run_until_complete(proc, timeout=30)
        sim.run(until=sim.now + 0.5)
        # after restore, ordinary traffic works
        assert udp_once(scn, b"after-restore", port=8702) == b"after-restore"

    def test_grants_clean_after_save(self, xl):
        scn = xl
        listener_node = min((scn.node_a, scn.node_b), key=lambda n: n.domid)
        self._save_restore(scn, scn.node_b)
        scn.sim.run(until=scn.sim.now + 0.2)
        assert listener_node.grant_table.active_entries == 0

    def test_switched_machine_delivers_both_ways_after_restore(self):
        """Save/restore of vm2 on a machine behind the physical switch:
        UDP still flows vm1 <-> vm2 once it is restored."""
        scn = scenarios.migration_pair(FAST)
        scn.warmup()
        assert udp_once(scn, b"before", port=8703) == b"before"
        self._save_restore(scn, scn.node_b)
        assert udp_once(scn, b"a-to-b", port=8704) == b"a-to-b"

        sim = scn.sim
        server = scn.node_a.stack.udp_socket(8705)
        client = scn.node_b.stack.udp_socket()
        sim.process(client.sendto(b"b-to-a", (scn.ip_a, 8705)))
        proc = sim.process(server.recvfrom())
        data, _ = sim.run_until_complete(proc, timeout=5.0)
        assert data == b"b-to-a"
