"""The thousand-guest control plane, end to end at small scale.

Delta-mode clusters here are a handful of guests, which keeps each test
fast while still exercising the full protocol surface: multicast
RosterDelta/FullSync scans, the quiescent-scan fast path, WhoIs-driven
sparse mappings, the per-guest channel budget's eviction and
re-establishment, and identity refresh when a crashed guest restarts
reusing its pinned MAC.
"""

import importlib
import sys

import pytest

from repro import topology
from repro.calibration import DEFAULT_COSTS
from repro.core.channel import ChannelState
from repro.core.protocol import Announce, FullSync, PeerInfo, RosterDelta
from repro.net.addr import MacAddr

FAST = DEFAULT_COSTS.replace(discovery_period=0.2, bootstrap_timeout=0.01)

importlib.import_module("repro.scenarios.fault_matrix")
fm = sys.modules["repro.scenarios.fault_matrix"]


def _delta_spec(n=3, budget=None, full_sync_every=8, pin_last_mac=False):
    """``n`` XenLoop guests on one machine, delta discovery."""
    guests = []
    for i in range(n):
        pinned = pin_last_mac and i == n - 1
        guests.append(
            topology.GuestSpec(
                f"vm{i + 1}",
                channel_budget=budget,
                mac="00:16:3e:ff:00:05" if pinned else None,
            )
        )
    return topology.ClusterSpec(
        name="delta_test",
        machines=(topology.MachineSpec(name="xenA", guests=tuple(guests)),),
        discovery_mode="delta",
        full_sync_every=full_sync_every,
        expect_channels=False,
    )


def _udp(scn, src, dst, port, payload=b"ping"):
    """One datagram src -> dst; returns what dst received."""
    sim = scn.sim
    server = dst.stack.udp_socket(port)
    client = src.stack.udp_socket()

    def gen():
        yield from client.sendto(payload, (dst.stack.ip, port))
        data, _ = yield from server.recvfrom()
        return data

    proc = sim.process(gen())
    data = sim.run_until_complete(proc, timeout=5.0)
    server.close()
    client.close()
    return data


def _connect(scn, src, dst, port):
    """Drive traffic until the src->dst channel is CONNECTED."""
    sim = scn.sim
    module = scn.modules[src.name]
    for _ in range(50):
        assert _udp(scn, src, dst, port) == b"ping"
        channel = module.channels.get(dst.mac)
        if channel is not None and channel.state is ChannelState.CONNECTED:
            return channel
        sim.run(until=sim.now + FAST.discovery_period / 2)
    raise AssertionError(f"{src.name}->{dst.name} channel never connected")


class TestSparseMapping:
    def test_mapping_grows_only_on_demand(self):
        """A guest's mapping holds the peers it resolved, not the roster."""
        scn = _delta_spec(n=4).build(FAST, seed=7)
        a, b = scn.guests["vm1"], scn.guests["vm2"]
        scn.sim.run(until=FAST.discovery_period * 2)  # let scans happen
        assert scn.modules["vm1"].mapping == {}  # nothing resolved yet
        _connect(scn, a, b, port=7601)
        control = scn.modules["vm1"].control
        assert set(control.mapping) == {b.mac}  # one peer, not three
        assert control.whois_sent >= 1
        assert control.roster.epoch >= 1
        dom0 = scn.discoveries[0]
        assert dom0.whois_answered >= 1

    def test_delta_mode_is_deterministic(self):
        """Two identical builds walk the identical event stream."""
        counts = []
        for _ in range(2):
            scn = _delta_spec(n=3).build(FAST, seed=7)
            _connect(scn, scn.guests["vm1"], scn.guests["vm2"], port=7602)
            scn.sim.run(until=2.0)
            counts.append(
                (scn.sim.event_count, scn.modules["vm1"].stats(),
                 scn.discoveries[0].epoch)
            )
        assert counts[0] == counts[1]

    def test_module_snapshot_carries_roster_state(self):
        scn = _delta_spec(n=3).build(FAST, seed=7)
        _connect(scn, scn.guests["vm1"], scn.guests["vm2"], port=7603)
        snap = scn.modules["vm1"].snapshot_state()
        assert snap["delta_discovery"] is True
        roster = snap["control"]["roster"]
        assert roster["epoch"] >= 1 and roster["track_all"] is False


class TestQuiescentFastPath:
    def test_unchanged_scan_builds_no_frame(self, monkeypatch):
        """A quiescent scan must not even construct a RosterDelta, let
        alone serialize or send one (full syncs disabled here)."""
        scn = _delta_spec(n=3, full_sync_every=0).build(FAST, seed=7)
        sim = scn.sim
        dom0 = scn.discoveries[0]
        sim.run(until=FAST.discovery_period * 1.5)  # the one changed scan
        assert dom0.deltas_sent == 1

        disc_mod = sys.modules["repro.core.discovery"]

        def boom(*args, **kwargs):
            raise AssertionError("RosterDelta built on a quiescent scan")

        monkeypatch.setattr(disc_mod, "RosterDelta", boom)
        monkeypatch.setattr(disc_mod, "FullSync", boom)
        frames_before = dom0.announcements_sent
        sim.run(until=sim.now + FAST.discovery_period * 5)
        assert dom0.quiescent_scans >= 4
        assert dom0.announcements_sent == frames_before


class TestChannelBudget:
    def test_eviction_and_reestablishment_round_trip(self):
        """budget=1: a second peer evicts the first's channel (LRU); the
        first peer re-establishes on its next traffic."""
        scn = _delta_spec(n=3, budget=1).build(FAST, seed=7)
        a, b, c = (scn.guests[f"vm{i}"] for i in (1, 2, 3))
        module = scn.modules["vm1"]

        _connect(scn, a, b, port=7604)
        assert set(module.channels) == {b.mac}

        _connect(scn, a, c, port=7605)  # over budget: a<->b is the LRU victim
        scn.sim.run(until=scn.sim.now + 0.5)  # let the eviction teardown land
        assert module.control.budget_evictions >= 1
        assert set(module.channels) == {c.mac}
        assert len(module.channels) <= 1

        # Round trip: traffic to b again re-establishes within the budget.
        _connect(scn, a, b, port=7606)
        scn.sim.run(until=scn.sim.now + 0.5)
        assert len(module.channels) <= 1
        assert module.channels[b.mac].state is ChannelState.CONNECTED
        # and the data path used channels, not just netfront fallback
        assert module.pkts_via_channel > 0

    def test_budget_never_exceeded_under_fanout(self):
        scn = _delta_spec(n=4, budget=2).build(FAST, seed=7)
        a = scn.guests["vm1"]
        for i, port in ((2, 7611), (3, 7612), (4, 7613)):
            _connect(scn, a, scn.guests[f"vm{i}"], port=port)
            scn.sim.run(until=scn.sim.now + 0.5)
            connected = [
                ch for ch in scn.modules["vm1"].channels.values()
                if ch.state is ChannelState.CONNECTED
            ]
            assert len(connected) <= 2


class TestIdentityRefresh:
    def test_same_mac_restart_updates_mapping_announce_mode(self):
        """Satellite regression (announce mode): a crash + restart reusing
        a pinned MAC re-advertises under a fresh domid, and the peer's
        mapping must follow instead of routing to the dead identity."""
        cluster = fm._build_pair(fm.MATRIX_COSTS, seed=0, pin_mac=True)
        sim = cluster.sim
        vm1, vm2 = cluster.guests["vm1"], cluster.guests["vm2"]
        _connect(cluster, vm1, vm2, port=7621)
        old_domid, mac = vm2.domid, vm2.mac

        vm2.crash()
        new = cluster.restart_guest("vm2")
        assert new.mac == mac and new.domid != old_domid
        sim.run(until=sim.now + FAST.discovery_period * 3)

        module = cluster.modules["vm1"]
        assert module.control.mapping[mac] == new.domid
        # no channel still bound to the dead incarnation
        for channel in module.channels.values():
            assert channel.peer_domid != old_domid

    def test_same_mac_restart_updates_mapping_delta_mode(self):
        """The same regression through the RosterDelta identity-change
        path: crash + restart inside one scan window, so the scanner
        emits a join for an already-tracked MAC with a new domid."""
        scn = _delta_spec(n=3, pin_last_mac=True).build(FAST, seed=7)
        sim = scn.sim
        a, b = scn.guests["vm1"], scn.guests["vm3"]
        _connect(scn, a, b, port=7622)
        old_domid, mac = b.domid, b.mac

        b.crash()
        new = scn.restart_guest("vm3")  # same scan window: no leave seen
        assert new.mac == mac and new.domid != old_domid
        sim.run(until=sim.now + FAST.discovery_period * 3)

        control = scn.modules["vm1"].control
        assert control.mapping[mac] == new.domid
        for channel in scn.modules["vm1"].channels.values():
            assert channel.peer_domid != old_domid
        # and the refreshed identity carries traffic again
        _connect(scn, a, new, port=7623)

    def test_fault_matrix_cell_exists_and_passes(self):
        cell = next(
            c for c in fm.matrix_cells()
            if c.name == "crash_restart_same_mac:connected"
        )
        assert cell.pin_mac
        result = fm.run_cell(cell)
        assert result["ok"], result["detail"]
        assert result["recovered"].get("guest_restart") == 1


class TestModeIsolation:
    """Each discovery mode ignores the other mode's roster frames: the
    ``track_all`` check in the control plane is all that keeps a delta
    frame from editing an announce guest's mirror, or an Announce from
    filling a delta guest's sparse mapping."""

    def test_announce_guest_ignores_delta_frames(self):
        cluster = fm._build_pair(fm.MATRIX_COSTS, seed=0)
        vm1, vm2 = cluster.guests["vm1"], cluster.guests["vm2"]
        channel = _connect(cluster, vm1, vm2, port=7631)
        control = cluster.modules["vm1"].control
        mapping, channels = dict(control.mapping), dict(control.channels)
        stranger = MacAddr("00:16:3e:ff:00:42")

        control.handle_roster_delta(
            RosterDelta(0, 1, [(77, vm2.mac), (78, stranger)], [(vm2.domid, vm2.mac)])
        )
        control.handle_full_sync(FullSync(0, 1, [(79, stranger)]))
        control.handle_peer_info(PeerInfo(0, vm2.mac, 77, True))
        control.handle_peer_info(PeerInfo(0, stranger, 78, True))
        cluster.sim.run(until=cluster.sim.now + 0.05)

        assert control.mapping == mapping
        assert control.channels == channels
        assert channel.state is ChannelState.CONNECTED

    def test_delta_guest_ignores_announce(self):
        scn = _delta_spec(n=3).build(FAST, seed=7)
        a, b, c = (scn.guests[f"vm{i}"] for i in (1, 2, 3))
        channel = _connect(scn, a, b, port=7632)
        control = scn.modules["vm1"].control
        assert control.mapping == {b.mac: b.domid}

        control.handle_announce(
            Announce(sender_domid=0, entries=[(a.domid, a.mac), (c.domid, c.mac)])
        )
        control.handle_announce(
            Announce(sender_domid=0, entries=[(b.domid + 40, b.mac)])
        )
        scn.sim.run(until=scn.sim.now + 0.05)

        assert control.mapping == {b.mac: b.domid}
        assert channel.state is ChannelState.CONNECTED
