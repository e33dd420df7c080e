"""The XenLoop control plane (paper Sect. 3.2 and 3.4).

The paper describes two distinct concerns: the *control protocol* --
soft-state discovery, the bootstrap handshake (connect request /
create_channel / channel_ack with retries), teardown, and the migration
response -- and the *data channel* (the two shared-memory FIFOs plus
the event channel, Sect. 3.3).  This module is the control side,
extracted so that :mod:`repro.core.channel` is purely the FIFO
transport:

* :class:`ChannelEvent` / :data:`TRANSITIONS` / :class:`ChannelFSM` --
  a typed, table-driven finite state machine over
  :class:`~repro.core.channel.ChannelState`.  Every lifecycle move a
  channel endpoint can make is one ``(state, event) -> state`` row;
  anything absent from the table is explicitly ignored (e.g. an
  out-of-order ``CREATE_ACK`` arriving after teardown).
* :class:`ChannelController` -- the per-channel state machine driver:
  the listener/connector handshake generators, retry/abort logic, and
  teardown sequencing.  It calls into the channel only for transport
  actions (allocate/map/disengage/drain, and starting the drain worker
  on connect); the channel never decides lifecycle on its own.  Every
  close -- teardown, peer FIN or failed bootstrap -- ends in one direct
  call, :meth:`ControlPlane.channel_closed`, which drops the channel
  from the tables.
* :class:`ControlPlane` -- the per-guest orchestrator extracted from
  :class:`~repro.core.module.XenLoopModule`: the [guest-ID, MAC]
  mapping table (the latest announced roster), control-frame dispatch,
  bootstrap initiation, the idle-channel reaper, and the
  migration/shutdown/unload responses.

Determinism note: the FSM itself is pure bookkeeping (no simulated
time, no event-calendar entries), so driving the existing handshake
and teardown generators through it preserves the exact event order the
PR 1/2 golden tests pin.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Optional

from repro import faults
from repro.core.protocol import (
    Announce,
    ChannelAck,
    ConnectRequest,
    CreateChannel,
    parse_message,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.channel import Channel
    from repro.core.module import XenLoopModule
    from repro.net.addr import MacAddr

__all__ = [
    "ChannelController",
    "ChannelEvent",
    "ChannelFSM",
    "ChannelState",
    "ControlPlane",
    "TRANSITIONS",
]


class ChannelState(enum.Enum):
    """Lifecycle states of one channel endpoint."""
    INIT = "init"
    #: connector waiting for create_channel / listener waiting for ack.
    BOOTSTRAPPING = "bootstrapping"
    CONNECTED = "connected"
    CLOSED = "closed"
    FAILED = "failed"


class ChannelEvent(enum.Enum):
    """Everything that can happen to a channel endpoint's lifecycle."""

    #: local decision to start bootstrapping (listener allocates, or
    #: connector sends CONNECT_REQUEST and awaits create_channel).
    BOOTSTRAP_START = "bootstrap_start"
    #: peer asked us to act as listener (CONNECT_REQUEST frame).
    CONNECT_REQ = "connect_req"
    #: CREATE_CHANNEL frame arrived (connector side maps + binds).
    CREATE_CHANNEL = "create_channel"
    #: CHANNEL_ACK frame arrived (listener side completes).
    CREATE_ACK = "create_ack"
    #: connector finished mapping/binding and is about to ack.
    HANDSHAKE_DONE = "handshake_done"
    #: connector could not map the peer's grants / bind the port.
    MAP_FAILED = "map_failed"
    #: listener exhausted its create_channel retries without an ack.
    ACK_TIMEOUT = "ack_timeout"
    #: a discovery announcement confirmed the peer (soft-state refresh).
    ANNOUNCE_SEEN = "announce_seen"
    #: peer marked the shared FIFOs inactive (its teardown).
    PEER_FIN = "peer_fin"
    #: locally initiated teardown (module unload, explicit close).
    LOCAL_TEARDOWN = "local_teardown"
    #: announcement no longer lists the peer (died / migrated away /
    #: unloaded its module): soft-state pruning.
    PEER_LOST = "peer_lost"
    #: idle-channel reaper expired the channel (Sect. 3.1).
    IDLE_EXPIRED = "idle_expired"
    #: hypervisor pre-migration callback (Sect. 3.4).
    PRE_MIGRATE = "pre_migrate"
    #: guest shutdown callback.
    SHUTDOWN = "shutdown"


#: the causes that close a channel from any live state.
_TEARDOWN_EVENTS = (
    ChannelEvent.LOCAL_TEARDOWN,
    ChannelEvent.PEER_LOST,
    ChannelEvent.IDLE_EXPIRED,
    ChannelEvent.PRE_MIGRATE,
    ChannelEvent.SHUTDOWN,
)

#: the table: ``(state, event) -> new state``.  A missing row means the
#: event is *ignored* in that state (``ChannelFSM.feed`` returns None) --
#: e.g. a duplicate CREATE_ACK after the channel is CLOSED, or a
#: CONNECT_REQ racing an in-flight bootstrap.
TRANSITIONS: dict[tuple[ChannelState, ChannelEvent], ChannelState] = {
    # -- INIT: freshly created, no resources yet ------------------------
    (ChannelState.INIT, ChannelEvent.BOOTSTRAP_START): ChannelState.BOOTSTRAPPING,
    (ChannelState.INIT, ChannelEvent.CREATE_CHANNEL): ChannelState.BOOTSTRAPPING,
    (ChannelState.INIT, ChannelEvent.CONNECT_REQ): ChannelState.INIT,
    (ChannelState.INIT, ChannelEvent.ANNOUNCE_SEEN): ChannelState.INIT,
    # -- BOOTSTRAPPING: handshake in flight ------------------------------
    (ChannelState.BOOTSTRAPPING, ChannelEvent.CREATE_ACK): ChannelState.CONNECTED,
    (ChannelState.BOOTSTRAPPING, ChannelEvent.HANDSHAKE_DONE): ChannelState.CONNECTED,
    # duplicate create_channel (listener retry): re-enter the connector path.
    (ChannelState.BOOTSTRAPPING, ChannelEvent.CREATE_CHANNEL): ChannelState.BOOTSTRAPPING,
    (ChannelState.BOOTSTRAPPING, ChannelEvent.MAP_FAILED): ChannelState.FAILED,
    (ChannelState.BOOTSTRAPPING, ChannelEvent.ACK_TIMEOUT): ChannelState.FAILED,
    (ChannelState.BOOTSTRAPPING, ChannelEvent.ANNOUNCE_SEEN): ChannelState.BOOTSTRAPPING,
    # -- CONNECTED: data path live ---------------------------------------
    (ChannelState.CONNECTED, ChannelEvent.PEER_FIN): ChannelState.CLOSED,
    (ChannelState.CONNECTED, ChannelEvent.ANNOUNCE_SEEN): ChannelState.CONNECTED,
}
# Teardown causes close the channel from every live state (the quick
# path of `teardown` handles not-yet-connected channels: a bootstrap
# can be abandoned by unload/migration before it ever connects), and
# re-closing a CLOSED or FAILED channel is an idempotent no-op move.
for _state in (
    ChannelState.INIT,
    ChannelState.BOOTSTRAPPING,
    ChannelState.CONNECTED,
    ChannelState.CLOSED,
    ChannelState.FAILED,
):
    for _event in _TEARDOWN_EVENTS:
        TRANSITIONS[(_state, _event)] = ChannelState.CLOSED
del _state, _event


class ChannelFSM:
    """Table-driven state holder for one channel endpoint.

    Pure bookkeeping: feeding an event consults :data:`TRANSITIONS`
    and either moves to the new state (returned) or ignores the event
    (returns None).  The last few transitions are kept in ``history``
    for debugging and assertions.
    """

    __slots__ = ("state", "history")

    def __init__(self, initial: ChannelState = ChannelState.INIT):
        self.state = initial
        self.history: deque[tuple[ChannelEvent, ChannelState, ChannelState]] = deque(
            maxlen=16
        )

    def feed(self, event: ChannelEvent) -> Optional[ChannelState]:
        """Apply one event; returns the new state, or None if ignored."""
        new = TRANSITIONS.get((self.state, event))
        if new is None:
            return None
        self.history.append((event, self.state, new))
        self.state = new
        return new

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ChannelFSM {self.state.value}>"

    def snapshot_state(self) -> dict:
        """Current state plus the retained transition history."""
        return {
            "state": self.state.value,
            "history": [
                [event.value, old.value, new.value]
                for (event, old, new) in self.history
            ],
        }


class ChannelController:
    """Drives one channel endpoint's lifecycle (paper Sect. 3.3 control).

    Owns the FSM and the handshake/teardown sequencing; calls into the
    data-plane :class:`~repro.core.channel.Channel` only for transport
    actions (allocate, grant, map, drain, disengage, start the drain
    worker) and into its module's :class:`ControlPlane` to leave the
    tables once the channel is closed.
    """

    def __init__(self, channel: "Channel"):
        self.channel = channel
        self.fsm = ChannelFSM()
        self._ack_event = None
        #: handshake sends so far (listener: CREATE_CHANNEL sends;
        #: connector: CONNECT_REQUEST sends) -- the retry-ladder position.
        self.attempts = 0
        #: connector map/bind in flight: duplicate CREATE_CHANNEL frames
        #: (listener retry after ack loss) must not re-enter the mapping.
        self._connector_busy = False
        #: when this endpoint entered BOOTSTRAPPING (the announce-driven
        #: connector watchdog measures staleness against this).
        self.bootstrap_started_at = channel.guest.sim.now

    @property
    def state(self) -> ChannelState:
        return self.fsm.state

    def snapshot_state(self) -> dict:
        """FSM state, retry-ladder position, and watchdog anchor."""
        return {
            "fsm": self.fsm.snapshot_state(),
            "attempts": self.attempts,
            "connector_busy": self._connector_busy,
            "ack_pending": self._ack_event is not None,
            "bootstrap_started_at": self.bootstrap_started_at,
        }

    def _fail(self, event: ChannelEvent, degraded_note: str) -> None:
        """Bootstrap-failure tail: record ``event``, fail anything parked
        on the waiting list, leave the tables, and note the degraded
        path."""
        channel = self.channel
        self.fsm.feed(event)
        channel.abort_waiting()
        channel.module.control.channel_closed(channel)
        faults.note_degraded(channel.guest.sim, degraded_note)

    def _phase_tap(self, phase: str) -> None:
        """Fault tap: crash/migrate rules anchored to a handshake phase
        (no-op without an installed plan)."""
        guest = self.channel.guest
        plan = guest.sim.fault_plan
        if plan is not None and plan.has_phase_rules:
            plan.on_phase(guest, phase)

    # ------------------------------------------------------------------
    # Bootstrap -- listener side (smaller guest-ID, paper Fig. 3)
    # ------------------------------------------------------------------
    def listener_start(self):
        """Create the transport and run the create/ack handshake
        (generator, guest context).  Returns True on success."""
        channel = self.channel
        guest = channel.guest
        costs = guest.costs
        self.fsm.feed(ChannelEvent.BOOTSTRAP_START)
        self.bootstrap_started_at = guest.sim.now
        self._phase_tap("bootstrapping")
        try:
            msg = yield from channel.create_listener_transport()
        except Exception:  # noqa: BLE001
            if not guest.alive:
                # Died mid-allocation (crash injection): the domain
                # teardown already reclaimed every grant and port, and a
                # dead guest must not keep allocating hypervisor state.
                return False
            raise

        # Send create_channel; retry up to 3 times on ack timeout.
        for _attempt in range(costs.bootstrap_retries):
            self.attempts = _attempt + 1
            self._ack_event = guest.sim.event(name="xl-ack")
            yield from channel.module.send_control(channel.peer_mac, msg)
            yield guest.sim.any_of(
                [self._ack_event, guest.sim.timeout(costs.bootstrap_timeout)]
            )
            if not guest.alive:
                return False  # died while waiting for the ack
            if self.fsm.state is ChannelState.CONNECTED:
                if self.attempts > 1:
                    faults.note_recovered(guest.sim, "bootstrap_retry")
                return True
            if self.fsm.state is not ChannelState.BOOTSTRAPPING:
                break  # torn down while waiting
        if self.fsm.state is ChannelState.BOOTSTRAPPING:
            yield from self._abort_bootstrap()
        return False

    def on_channel_ack(self) -> None:
        """Listener: connector confirmed (softirq context)."""
        if not self.channel.is_listener:
            return
        if self.fsm.feed(ChannelEvent.CREATE_ACK) is None:
            return  # not BOOTSTRAPPING: stale or out-of-order ack
        self.channel._start_drain_worker()
        self._phase_tap("connected")
        if self._ack_event is not None and not self._ack_event.triggered:
            self._ack_event.succeed()

    def _abort_bootstrap(self):
        guest = self.channel.guest
        self.channel.discard_listener_transport()
        self._fail(ChannelEvent.ACK_TIMEOUT, "bootstrap_abort")
        yield guest.exec(guest.costs.grant_entry_update)

    # ------------------------------------------------------------------
    # Bootstrap -- connector side
    # ------------------------------------------------------------------
    def connector_complete(self, msg: CreateChannel):
        """Map the listener's transport and ack (generator, guest
        context).  Returns True on success."""
        channel = self.channel
        guest = channel.guest
        if self._connector_busy:
            return False  # duplicate CREATE while our mapping is in flight
        was = self.fsm.state
        if self.fsm.feed(ChannelEvent.CREATE_CHANNEL) is None:
            return False  # already connected / closed / failed
        if was is not ChannelState.BOOTSTRAPPING:
            # Fresh entry into the handshake (not a listener retry).
            self.bootstrap_started_at = guest.sim.now
            self._phase_tap("bootstrapping")
        peer_table = guest.machine.hypervisor.grant_tables.get(channel.peer_domid)
        if peer_table is None:
            self._fail(ChannelEvent.MAP_FAILED, "map_failed")
            return False

        self._connector_busy = True
        try:
            yield from channel.map_connector_transport(peer_table, msg)
        except Exception:  # noqa: BLE001 - any mapping/bind failure aborts cleanly
            self._connector_busy = False
            yield from channel.disengage(notify_peer=False)
            self._fail(ChannelEvent.MAP_FAILED, "map_failed")
            return False
        self._connector_busy = False

        self.fsm.feed(ChannelEvent.HANDSHAKE_DONE)
        channel._start_drain_worker()
        if self.attempts > 1:
            faults.note_recovered(guest.sim, "connect_retry")
        self._phase_tap("connected")
        yield from channel.module.send_control(channel.peer_mac, ChannelAck(guest.domid))
        return True

    def abort_connect(self) -> None:
        """Connector gave up waiting for CREATE_CHANNEL (retry budget
        exhausted): fail the channel so the next packet to this peer
        re-initiates the bootstrap from scratch.  Reuses the FSM's
        ACK_TIMEOUT rail -- both sides time the same handshake out."""
        if self.fsm.state is ChannelState.BOOTSTRAPPING:
            self._fail(ChannelEvent.ACK_TIMEOUT, "bootstrap_abort")

    # ------------------------------------------------------------------
    # Teardown (paper Sect. 3.3, "Channel teardown")
    # ------------------------------------------------------------------
    def teardown(self, cause: ChannelEvent = ChannelEvent.LOCAL_TEARDOWN):
        """Locally-initiated teardown (generator, guest context).

        ``cause`` names why (unload, idle expiry, pre-migration,
        shutdown, peer vanished from announcements) -- they all follow
        the same close rail in the table, but the FSM history records
        the distinction.  Returns the serialized L3 packets from the
        waiting list so the caller can resend them via the standard
        path.
        """
        channel = self.channel
        guest = channel.guest
        if self.fsm.state is not ChannelState.CONNECTED:
            # Nothing on the wire yet (or already closed): record the
            # close, release anything parked on the waiting list (a
            # bootstrap abandoned by unload/migration can still have
            # blocked senders), and drop out of the module's table.
            self.fsm.feed(cause)
            channel.abort_waiting()
            channel.module.control.channel_closed(channel)
            return []
        costs = guest.costs
        self.fsm.feed(cause)

        channel.out_fifo.mark_inactive()
        channel.in_fifo.mark_inactive()
        yield guest.exec(costs.evtchn_send)
        guest.machine.hypervisor.evtchn.notify(channel.port)

        # Receive anything still pending in our incoming FIFO.
        yield from channel.drain_remaining()
        saved = channel.take_saved_packets()
        yield from channel.disengage(notify_peer=False)
        channel.module.control.channel_closed(channel)
        channel.notify_stream_death()
        return saved

    def peer_fin(self):
        """The peer marked the channel inactive; disengage our side
        (generator, drain-worker context)."""
        channel = self.channel
        self.fsm.feed(ChannelEvent.PEER_FIN)
        yield from channel.drain_remaining()
        saved = channel.take_saved_packets()
        yield from channel.disengage(notify_peer=True)
        channel.module.control.channel_closed(channel)
        channel.notify_stream_death()
        # Anything we had queued goes back out via the standard path.
        for data in saved:
            channel.module.resend_via_standard_path(data)


class ControlPlane:
    """Per-guest control-plane orchestrator (extracted from the module).

    Owns the [guest-ID, MAC] mapping table and the channel table, and
    runs everything that is *about* channels rather than *through*
    them: announcement processing, bootstrap initiation, control-frame
    dispatch, the idle reaper, and the migration/shutdown responses.
    The data-plane hook in :class:`~repro.core.module.XenLoopModule`
    only ever reads these tables.
    """

    def __init__(self, module: "XenLoopModule"):
        self.module = module
        self.guest = module.guest
        #: MAC -> guest-ID of co-resident XenLoop-willing guests: the
        #: latest announced roster, never including this guest's own MAC.
        self.mapping: dict["MacAddr", int] = {}
        #: MAC -> live Channel endpoint.
        self.channels: dict["MacAddr", "Channel"] = {}
        #: guest-ID -> live Channel: the data path's domid-hashed index,
        #: kept in lockstep with ``channels``.
        self.channels_by_domid: dict[int, "Channel"] = {}
        #: packets saved across a migration (resent on the new machine).
        self.saved_packets: list[bytes] = []
        self.announcements_seen = 0

    def snapshot_state(self) -> dict:
        """Mapping table, per-channel FSM/controller state, and the
        migration save queue -- the complete control-plane soft state."""
        return {
            "mapping": {str(mac): domid for mac, domid in self.mapping.items()},
            "channels": {
                str(mac): ch.snapshot_state() for mac, ch in self.channels.items()
            },
            "channels_by_domid": sorted(self.channels_by_domid),
            "saved_packets": len(self.saved_packets),
            "announcements_seen": self.announcements_seen,
        }

    # ------------------------------------------------------------------
    # Channel table
    # ------------------------------------------------------------------
    def _new_channel(self, peer_domid: int, mac: "MacAddr") -> "Channel":
        from repro.core.channel import Channel

        channel = Channel(self.module, peer_domid, mac)
        self.channels[mac] = channel
        self.channels_by_domid[peer_domid] = channel
        self.module.channel_created(channel)
        return channel

    def channel_closed(self, channel: "Channel") -> None:
        """Drop a closed (or never-live) channel from both tables."""
        if self.channels.get(channel.peer_mac) is channel:
            del self.channels[channel.peer_mac]
        if self.channels_by_domid.get(channel.peer_domid) is channel:
            del self.channels_by_domid[channel.peer_domid]

    # ------------------------------------------------------------------
    # XenStore advertisement (soft-state discovery, Sect. 3.2)
    # ------------------------------------------------------------------
    def advertise(self):
        yield from self.guest.xs_write(
            f"{self.guest.xs_prefix}/xenloop", str(self.guest.mac)
        )

    def unadvertise(self):
        yield from self.guest.xs_rm(f"{self.guest.xs_prefix}/xenloop")

    # ------------------------------------------------------------------
    # Control-frame input (softirq context)
    # ------------------------------------------------------------------
    def control_input(self, packet, dev):
        guest = self.guest
        yield guest.exec(guest.costs.xenloop_lookup)
        if not self.module.loaded:
            return
        try:
            msg = parse_message(packet.payload)
        except ValueError:
            return
        if isinstance(msg, Announce):
            self.handle_announce(msg)
        elif isinstance(msg, ConnectRequest):
            self.handle_connect_request(msg)
        elif isinstance(msg, CreateChannel):
            self.handle_create_channel(msg, packet.eth.src)
        elif isinstance(msg, ChannelAck):
            channel = self.channels.get(packet.eth.src)
            # A stale ack (sent for an earlier incarnation of this MAC's
            # channel, then delayed in flight) must not complete a newer
            # handshake it never belonged to: the sender's guest-ID is
            # the incarnation check.
            if channel is not None and channel.peer_domid == msg.sender_domid:
                channel.ctrl.on_channel_ack()

    def handle_announce(self, msg: Announce) -> None:
        """Make ``mapping`` the announced roster (minus this guest) and
        retire the channels of peers that vanished or changed identity
        (migrated away, died, or unloaded their module): soft-state
        pruning, Sect. 3.2."""
        self.announcements_seen += 1
        own_mac = self.guest.mac
        roster = {mac: domid for domid, mac in msg.entries if mac != own_mac}
        mapping = self.mapping
        retire: list["MacAddr"] = []
        for mac, known in list(mapping.items()):
            actual = roster.get(mac)
            if actual is None:
                del mapping[mac]
                retire.append(mac)
            elif actual != known:
                mapping[mac] = actual
                retire.append(mac)
        for mac, domid in roster.items():
            mapping.setdefault(mac, domid)
        for mac in retire:
            channel = self.channels.get(mac)
            if channel is not None:
                self._retire(channel)
        self._nudge_connectors()

    def _nudge_connectors(self) -> None:
        """Confirm every channel whose peer the roster still lists.  The
        periodic announcement doubles as the connector-retry clock."""
        for mac, channel in list(self.channels.items()):
            if self.mapping.get(mac) == channel.peer_domid:
                channel.ctrl.fsm.feed(ChannelEvent.ANNOUNCE_SEEN)
                self._retry_stuck_connector(channel)

    def _retire(self, channel: "Channel") -> None:
        """The channel's peer left or changed identity: tear a live
        channel down (its parked packets fall back to netfront), drop
        any other straight from the tables."""
        if channel.state in (ChannelState.CONNECTED, ChannelState.BOOTSTRAPPING):
            self.guest.spawn(
                self._teardown_and_fallback(channel, ChannelEvent.PEER_LOST),
                name="xl-teardown",
            )
        else:
            self.channel_closed(channel)

    def _refresh_identity(self, mac: "MacAddr", domid: int) -> None:
        """Record a [guest-ID, MAC] pair learned from an inbound control
        frame, replacing a stale guest-ID left by a crash/restart that
        reused the MAC -- and tearing down any channel built on the old
        identity (its grants/ports died with the old domain)."""
        old = self.mapping.get(mac)
        if old == domid:
            return
        if old is not None:
            channel = self.channels.get(mac)
            if channel is not None and channel.peer_domid != domid:
                self._retire(channel)
        if mac != self.guest.mac:
            self.mapping[mac] = domid

    def handle_connect_request(self, msg: ConnectRequest) -> None:
        mac = msg.sender_mac
        self._refresh_identity(mac, msg.sender_domid)
        if self.guest.domid > msg.sender_domid:
            return  # misdirected: we are not the smaller ID
        channel = self.channels.get(mac)
        if (
            channel is not None
            and channel.peer_domid == msg.sender_domid
            and channel.state
            in (
                ChannelState.BOOTSTRAPPING,
                ChannelState.CONNECTED,
            )
        ):
            port = channel.port
            if channel.state is ChannelState.CONNECTED and (
                port is None or port.peer is None
            ):
                # CONNECTED over a dead transport (the peer closed its
                # port end): the connector re-initiating is proof its
                # side of the channel is gone.  Replace the husk with a
                # fresh handshake instead of ignoring the request.
                self.guest.spawn(self._replace_stale(channel), name="xl-relisten")
                return
            return  # bootstrap already in flight (simultaneous initiation)
        channel = self._new_channel(msg.sender_domid, mac)
        channel.ctrl.fsm.feed(ChannelEvent.CONNECT_REQ)
        self.guest.spawn(channel.ctrl.listener_start(), name="xl-listen")

    def _replace_stale(self, channel: "Channel", create: CreateChannel | None = None):
        """Replace a dead CONNECTED channel with a fresh handshake
        (generator, guest context): a listener one, or -- given the
        listener's ``create`` for its new transport -- a connector one."""
        saved = yield from channel.ctrl.teardown()
        for data in saved:
            self.module.resend_via_standard_path(data)
        faults.note_recovered(self.guest.sim, "stale_reconnect")
        fresh = self._new_channel(channel.peer_domid, channel.peer_mac)
        if create is None:
            fresh.ctrl.fsm.feed(ChannelEvent.CONNECT_REQ)
            yield from fresh.ctrl.listener_start()
        else:
            yield from fresh.ctrl.connector_complete(create)

    def handle_create_channel(self, msg: CreateChannel, src_mac: "MacAddr") -> None:
        self._refresh_identity(src_mac, msg.sender_domid)
        channel = self.channels.get(src_mac)
        if channel is not None and channel.peer_domid != msg.sender_domid:
            # Stale identity: _refresh_identity is tearing it down; the
            # fresh channel below replaces it in the tables.
            channel = None
        if channel is None:
            channel = self._new_channel(msg.sender_domid, src_mac)
        if channel.state is ChannelState.CONNECTED:
            port = channel.port
            if port is not None and port.peer is not None and port.peer.port == msg.evtchn_port:
                # Duplicate create (listener retry after ack loss): our
                # CHANNEL_ACK never arrived.  Re-ack so the listener can
                # complete instead of burning through its retry ladder
                # into FAILED while our side believes the channel is up.
                self.guest.spawn(
                    self.module.send_control(src_mac, ChannelAck(self.guest.domid)),
                    name="xl-ack-resend",
                )
                faults.note_recovered(self.guest.sim, "ack_resend")
                return
            # The listener rebuilt its transport (its retries exhausted
            # before our ack-loss recovery landed, so it closed the old
            # port and started over): the shared pages and event channel
            # under our CONNECTED state are gone.  Blindly re-acking
            # here would leave BOTH sides "connected" over dead
            # transports -- tear our husk down and run a fresh connector
            # handshake against the new transport instead.
            self.guest.spawn(self._replace_stale(channel, msg), name="xl-reconnect")
            return
        self.guest.spawn(channel.ctrl.connector_complete(msg), name="xl-connect")

    # ------------------------------------------------------------------
    # Bootstrap initiation (first traffic to a mapped peer, Sect. 3.1)
    # ------------------------------------------------------------------
    def initiate_bootstrap(self, mac: "MacAddr", peer_domid: int) -> None:
        existing = self.channels.get(mac)
        if existing is not None and existing.state not in (
            ChannelState.CLOSED,
            ChannelState.FAILED,
        ):
            # A live channel (or handshake in flight) already owns this
            # MAC -- possibly under a newer guest-ID than the caller's
            # cached mapping (the peer migrated back mid-burst).  A
            # second, dueling handshake would clobber the MAC-keyed
            # table and misroute the first one's ack; identity refresh
            # tears the old channel down if the mapping really changed.
            return
        channel = self._new_channel(peer_domid, mac)
        if channel.is_listener:
            self.guest.spawn(channel.ctrl.listener_start(), name="xl-listen")
        else:
            # We are the connector: ask the (smaller-ID) peer to create.
            ctrl = channel.ctrl
            ctrl.fsm.feed(ChannelEvent.BOOTSTRAP_START)
            ctrl.attempts = 1
            ctrl.bootstrap_started_at = self.guest.sim.now
            ctrl._phase_tap("bootstrapping")
            self.guest.spawn(
                self.module.send_control(
                    mac, ConnectRequest(self.guest.domid, self.guest.mac)
                ),
                name="xl-connreq",
            )

    def _retry_stuck_connector(self, channel: "Channel") -> None:
        """Announce-driven connector retry (soft-state watchdog).

        A connector has no timer of its own: if its CONNECT_REQUEST (or
        the listener's CREATE_CHANNEL reply) is lost, the channel would
        sit in BOOTSTRAPPING forever.  The periodic announcement is its
        retry clock: while the peer is still announced and the handshake
        is stale (older than the ack timeout), re-send the request -- up
        to the same retry budget the listener gets -- then abort to
        FAILED so the next packet re-initiates from scratch.  Never
        fires in a loss-free run: handshakes complete orders of
        magnitude faster than one discovery period.
        """
        ctrl = channel.ctrl
        guest = self.guest
        if (
            channel.state is not ChannelState.BOOTSTRAPPING
            or channel.is_listener
            or ctrl._connector_busy
            or guest.sim.now - ctrl.bootstrap_started_at <= guest.costs.bootstrap_timeout
        ):
            return
        if ctrl.attempts >= guest.costs.bootstrap_retries:
            ctrl.abort_connect()
            return
        ctrl.attempts += 1
        faults.note_recovered(guest.sim, "connreq_resend")
        self.guest.spawn(
            self.module.send_control(
                channel.peer_mac, ConnectRequest(guest.domid, guest.mac)
            ),
            name="xl-connreq",
        )

    # ------------------------------------------------------------------
    # Optional idle-channel reaper ("conserve system resources", 3.1)
    # ------------------------------------------------------------------
    def idle_monitor(self):
        guest = self.guest
        module = self.module
        while module.loaded:
            yield guest.sim.timeout(module.idle_timeout)
            cutoff = guest.sim.now - module.idle_timeout
            for channel in list(self.channels.values()):
                if (
                    channel.state is ChannelState.CONNECTED
                    and channel.last_activity < cutoff
                ):
                    yield from self._teardown_and_fallback(
                        channel, ChannelEvent.IDLE_EXPIRED
                    )

    def _teardown_and_fallback(self, channel: "Channel", cause: ChannelEvent):
        """Tear a channel down and re-route its parked packets through
        the standard netfront path (generator).  In-flight traffic
        survives a peer death or idle expiry instead of being dropped
        on the floor with the FIFOs."""
        saved = yield from channel.ctrl.teardown(cause)
        if saved:
            for data in saved:
                self.module.resend_via_standard_path(data)
            faults.note_recovered(self.guest.sim, "fallback_resend", len(saved))

    # ------------------------------------------------------------------
    # Lifecycle: unload, shutdown, migration (Sect. 3.3-3.4)
    # ------------------------------------------------------------------
    def shutdown(self):
        if not self.module.loaded:
            return
        self.module.loaded = False
        yield from self.unadvertise()
        for channel in list(self.channels.values()):
            yield from channel.ctrl.teardown(ChannelEvent.SHUTDOWN)

    def pre_migrate(self):
        """Hypervisor callback before migration: remove the
        advertisement, save pending packets, tear every channel down."""
        if not self.module.loaded:
            return
        yield from self.unadvertise()
        self.saved_packets = []
        for channel in list(self.channels.values()):
            saved = yield from channel.ctrl.teardown(ChannelEvent.PRE_MIGRATE)
            self.saved_packets.extend(saved)
        self.mapping.clear()

    def post_migrate(self):
        """After resuming on the new machine: re-advertise under the new
        domid and resend the saved packets via the standard path."""
        if not self.module.loaded:
            return
        yield from self.advertise()
        saved, self.saved_packets = self.saved_packets, []
        for data in saved:
            self.module.resend_via_standard_path(data)
