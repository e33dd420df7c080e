"""Control-plane lifecycle FSM: every state x event move is pinned.

The expected table below is written out independently of
``repro.core.control.TRANSITIONS`` so a table edit that changes
semantics fails here rather than silently redefining the protocol.
"""

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channel import ChannelState
from repro.core.control import TRANSITIONS, ChannelEvent, ChannelFSM, ControlPlane
from repro.core.protocol import Announce
from repro.net.addr import MacAddr
from repro.scenarios import fault_matrix as fm
from tests.core.conftest import FAST, first_channel

S = ChannelState
E = ChannelEvent

#: every teardown cause closes a channel from every state (idempotently
#: so for CLOSED/FAILED); spelled out here, not imported from the code.
TEARDOWN_CAUSES = (E.LOCAL_TEARDOWN, E.PEER_LOST, E.IDLE_EXPIRED, E.PRE_MIGRATE, E.SHUTDOWN)

#: (state, event) -> expected new state; pairs absent here must be
#: IGNORED by the FSM (feed returns None, state unchanged).
EXPECTED = {
    (S.INIT, E.BOOTSTRAP_START): S.BOOTSTRAPPING,
    (S.INIT, E.CREATE_CHANNEL): S.BOOTSTRAPPING,
    (S.INIT, E.CONNECT_REQ): S.INIT,
    (S.INIT, E.ANNOUNCE_SEEN): S.INIT,
    (S.BOOTSTRAPPING, E.CREATE_ACK): S.CONNECTED,
    (S.BOOTSTRAPPING, E.HANDSHAKE_DONE): S.CONNECTED,
    (S.BOOTSTRAPPING, E.CREATE_CHANNEL): S.BOOTSTRAPPING,
    (S.BOOTSTRAPPING, E.MAP_FAILED): S.FAILED,
    (S.BOOTSTRAPPING, E.ACK_TIMEOUT): S.FAILED,
    (S.BOOTSTRAPPING, E.ANNOUNCE_SEEN): S.BOOTSTRAPPING,
    (S.CONNECTED, E.PEER_FIN): S.CLOSED,
    (S.CONNECTED, E.ANNOUNCE_SEEN): S.CONNECTED,
}
for _state in S:
    for _cause in TEARDOWN_CAUSES:
        EXPECTED[(_state, _cause)] = S.CLOSED

ALL_PAIRS = list(itertools.product(S, E))


class TestTransitionTable:
    @pytest.mark.parametrize(
        "state,event", ALL_PAIRS, ids=[f"{s.value}-{e.value}" for s, e in ALL_PAIRS]
    )
    def test_every_state_event_pair(self, state, event):
        fsm = ChannelFSM(initial=state)
        moved = fsm.feed(event)
        want = EXPECTED.get((state, event))
        if want is None:
            assert moved is None, f"{event} must be ignored in {state}"
            assert fsm.state is state
        else:
            assert moved is want
            assert fsm.state is want

    def test_table_covers_exactly_the_expected_pairs(self):
        assert set(TRANSITIONS) == set(EXPECTED)

    def test_out_of_order_create_ack_after_teardown(self):
        """A late CHANNEL_ACK (listener retry crossing our teardown on
        the wire) must not resurrect a closed channel."""
        fsm = ChannelFSM(initial=S.CONNECTED)
        assert fsm.feed(E.LOCAL_TEARDOWN) is S.CLOSED
        assert fsm.feed(E.CREATE_ACK) is None
        assert fsm.state is S.CLOSED

    def test_pre_migrate_during_bootstrap(self):
        """The Sect. 3.4 pre-migration callback abandons an in-flight
        handshake cleanly."""
        fsm = ChannelFSM(initial=S.INIT)
        assert fsm.feed(E.BOOTSTRAP_START) is S.BOOTSTRAPPING
        assert fsm.feed(E.PRE_MIGRATE) is S.CLOSED
        assert fsm.feed(E.CREATE_ACK) is None  # handshake frames now stale

    def test_failed_channel_only_moves_on_teardown(self):
        for event in E:
            fsm = ChannelFSM(initial=S.FAILED)
            if event in TEARDOWN_CAUSES:
                assert fsm.feed(event) is S.CLOSED
            else:
                assert fsm.feed(event) is None

    def test_history_records_moves_not_ignores(self):
        fsm = ChannelFSM()
        fsm.feed(E.BOOTSTRAP_START)
        fsm.feed(E.CREATE_ACK)  # ignored? no: BOOTSTRAPPING x CREATE_ACK moves
        fsm.feed(E.CREATE_ACK)  # now CONNECTED: ignored
        assert [(e, old.value, new.value) for e, old, new in ((h[0], h[1], h[2]) for h in fsm.history)] == [
            (E.BOOTSTRAP_START, "init", "bootstrapping"),
            (E.CREATE_ACK, "bootstrapping", "connected"),
        ]


class TestControllerIntegration:
    def test_late_ack_does_not_reopen_torn_down_channel(self, xl):
        """Drive a real connected channel through teardown, then replay
        the ack: the channel must stay CLOSED."""
        scn = xl
        ch = first_channel(scn, scn.node_a)
        listener_ch = ch if ch.is_listener else first_channel(scn, scn.node_b)
        proc = scn.sim.process(listener_ch.ctrl.teardown(), name="test-teardown")
        scn.sim.run_until_complete(proc, timeout=5.0)
        assert listener_ch.state is S.CLOSED
        listener_ch.ctrl.on_channel_ack()  # out-of-order ack after teardown
        assert listener_ch.state is S.CLOSED

    def test_teardown_is_idempotent(self, xl):
        scn = xl
        ch = first_channel(scn, scn.node_a)
        for _ in range(2):
            proc = scn.sim.process(ch.ctrl.teardown(), name="test-teardown")
            scn.sim.run_until_complete(proc, timeout=5.0)
            assert ch.state is S.CLOSED

    def test_connected_channel_history_tells_the_story(self, xl):
        ch = first_channel(xl, xl.node_a)
        assert ch.state is S.CONNECTED
        events = [e for e, _old, _new in ch.ctrl.fsm.history]
        assert events[0] in (E.BOOTSTRAP_START, E.CREATE_CHANNEL)
        assert events[-1] in (E.CREATE_ACK, E.HANDSHAKE_DONE)


# ---------------------------------------------------------------------------
# Announce handling: the mapping table is the latest announced roster
# ---------------------------------------------------------------------------

OWN = MacAddr("00:16:3e:00:00:99")


def _mac(i: int) -> MacAddr:
    return OWN if i == 0 else MacAddr(0x00163E000000 + i)


class _StubChannel:
    """Channel table entry for ``handle_announce`` unit tests: its
    guest-ID matches no roster entry, so the connector nudge skips it."""

    def __init__(self, mac: MacAddr):
        self.peer_mac = mac
        self.peer_domid = -1


def _control() -> ControlPlane:
    return ControlPlane(SimpleNamespace(guest=SimpleNamespace(mac=OWN)))


def _announce(control: ControlPlane, entries) -> list[MacAddr]:
    """Deliver one Announce with a channel open to every mapped peer;
    return the peers whose channels it retired, in retirement order."""
    control.channels = {mac: _StubChannel(mac) for mac in control.mapping}
    retired: list[MacAddr] = []
    control._retire = lambda channel: retired.append(channel.peer_mac)
    control.handle_announce(Announce(0, list(entries)))
    return retired


class TestHandleAnnounce:
    def test_announce_replaces_mapping_and_retires_changed_peers(self):
        """The mapping becomes the announced roster, and peers that left
        or changed guest-ID have their channels retired."""
        control = _control()
        assert _announce(control, [(4, _mac(4)), (5, _mac(5)), (9, OWN)]) == []
        assert control.mapping == {_mac(4): 4, _mac(5): 5}
        assert _announce(control, [(7, _mac(4)), (6, _mac(6))]) == [_mac(4), _mac(5)]
        assert control.mapping == {_mac(4): 7, _mac(6): 6}
        assert control.announcements_seen == 2

    def test_own_mac_never_mapped(self):
        control = _control()
        _announce(control, [(9, OWN), (4, _mac(4))])
        control._refresh_identity(OWN, 9)
        assert control.mapping == {_mac(4): 4}


# One scripted step of cluster churn: (op, guest index, drop this
# step's Announce).  Index 0 is the receiving guest itself.
_steps = st.lists(
    st.tuples(
        st.sampled_from(["join", "leave", "rejoin"]),
        st.integers(min_value=0, max_value=7),
        st.booleans(),
    ),
    max_size=40,
)


class TestAnnounceConvergence:
    @settings(deadline=None)
    @given(steps=_steps)
    def test_one_delivered_announce_converges(self, steps):
        """Under any join/leave/rejoin churn with any Announces dropped,
        each delivered Announce leaves ``mapping`` equal to the scanner's
        roster minus the guest's own MAC, and retires exactly the peers
        that left or changed guest-ID since the last delivered one."""
        control = _control()
        roster: dict[MacAddr, int] = {}
        next_domid = 100

        def deliver():
            before = dict(control.mapping)
            retired = _announce(control, [(d, m) for m, d in roster.items()])
            assert control.mapping == {m: d for m, d in roster.items() if m != OWN}
            assert set(retired) == {m for m, d in before.items() if roster.get(m) != d}
            assert len(retired) == len(set(retired))

        for op, idx, drop in steps:
            mac = _mac(idx)
            if op == "join" and mac not in roster:
                next_domid += 1
                roster[mac] = next_domid
            elif op == "leave":
                roster.pop(mac, None)
            elif op == "rejoin" and mac in roster:
                # crash + restart reusing the MAC: fresh guest-ID
                next_domid += 1
                roster[mac] = next_domid
            if not drop:
                deliver()
        deliver()


# ---------------------------------------------------------------------------
# Identity refresh: a crashed guest restarts reusing its pinned MAC
# ---------------------------------------------------------------------------

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
        if channel is not None and channel.state is S.CONNECTED:
            return channel
        sim.run(until=sim.now + FAST.discovery_period / 2)
    raise AssertionError(f"{src.name}->{dst.name} channel never connected")


class TestIdentityRefresh:
    def test_same_mac_restart_updates_mapping_announce_mode(self):
        """A crash + restart reusing a pinned MAC re-advertises under a
        fresh domid, and the peer's mapping must follow instead of
        routing to the dead identity."""
        cluster = fm.fault_matrix(fm.MATRIX_COSTS, seed=0, pin_mac=True)
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

    def test_fault_matrix_cell_exists_and_passes(self):
        cell = next(
            c for c in fm.matrix_cells()
            if c.name == "crash_restart_same_mac:connected"
        )
        assert cell.pin_mac
        result = fm.run_cell(cell)
        assert result["ok"], result["detail"]
        assert result["recovered"].get("guest_restart") == 1
