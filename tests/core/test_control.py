"""Control-plane lifecycle FSM: every state x event move is pinned.

The expected table below is written out independently of
``repro.core.control.TRANSITIONS`` so a table edit that changes
semantics fails here rather than silently redefining the protocol.
"""

import itertools

import pytest

from repro.core.channel import ChannelState
from repro.core.control import TRANSITIONS, ChannelEvent, ChannelFSM
from tests.core.conftest import first_channel

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
