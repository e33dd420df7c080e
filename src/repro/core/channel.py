"""The bidirectional inter-VM channel -- data plane (paper Sect. 3.3).

Three components: two FIFOs (one per direction, each one descriptor
page + data pages of shared memory) and one event channel used for
data-available *and* space-available *and* teardown notifications --
the 1-bit semantics make all three share a port cleanly.

This module is purely the *transport*: allocating/granting/mapping the
shared pages, copying entries in and out of the FIFOs (send / park /
flush / drain), and releasing the resources again.  WHO does those
things WHEN -- the bootstrap handshake, retries, teardown causes,
migration -- lives in :mod:`repro.core.control`: every channel owns a
:class:`~repro.core.control.ChannelController` (``self.ctrl``) that
drives it through the table-driven lifecycle FSM.  The channel never
changes its own state: it reads ``self.state`` (a view of the FSM) to
gate the data path, and the controller calls it directly for every
transport action, including starting the drain worker on connect.
Lifecycle moves go through ``channel.ctrl``; the channel itself has no
control-plane methods.

Data transfer is two copies -- sender memcpy into the FIFO, receiver
memcpy out -- which the paper selects over page sharing/transfer and
over receive-side zero-copy (see ``benchmarks/bench_ablation_zerocopy``
for the re-run of that design comparison).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro import trace
from repro.core.control import ChannelController, ChannelState
from repro.core.fifo import Fifo, fifo_pages_for_order
from repro.core.protocol import CreateChannel
from repro.net.packet import WIRE_STATS, Packet
from repro.sim.resources import WaitQueue
from repro.xen.event_channel import NOTIFY_STATS
from repro.xen.grant_table import GrantError
from repro.xen.page import SharedRegion

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.module import XenLoopModule
    from repro.net.addr import MacAddr

__all__ = ["Channel", "ChannelDeadError", "ChannelState"]


class ChannelDeadError(Exception):
    """The channel died while a sender was blocked on it.

    Raised *into* processes waiting on :meth:`Channel.wait_waiting_space`
    when teardown empties the waiting list: the space they were waiting
    for will never appear, and leaving the event pending would park the
    waiter forever.  Callers (the socket-bypass sender) translate this
    into their own failure mode."""

#: FIFO entry type for an IPv4 packet.
ENTRY_IPV4 = 1
#: FIFO entry type for a socket-bypass stream frame (experimental
#: transport-layer variant; see repro.core.socket_bypass).
ENTRY_STREAM = 2


class _ZeroCopySource:
    """Pseudo-device for zero-copy inline injection at layer 3.  The
    packet goes straight to ``ipv4.input``, which shows the device only
    to the netfilter hooks, so the inline path charges no rx cost."""

    name = "xenloop-zerocopy"


_ZERO_COPY_SOURCE = _ZeroCopySource()


class Channel:
    """One endpoint's view of the channel with a single co-resident peer."""

    def __init__(self, module: "XenLoopModule", peer_domid: int, peer_mac: "MacAddr"):
        self.module = module
        self.guest = module.guest
        self.peer_domid = peer_domid
        self.peer_mac = peer_mac
        #: smaller guest-ID acts as the listener (paper Fig. 3).
        self.is_listener = self.guest.domid < peer_domid
        #: receive-side zero-copy variant (ablation; see
        #: :meth:`_drain_one_zero_copy`).  Inherited from the module.
        self.zero_copy_rx = module.zero_copy_rx
        #: the control-plane driver; all lifecycle moves go through it.
        self.ctrl = ChannelController(self)

        self.out_fifo: Optional[Fifo] = None
        self.in_fifo: Optional[Fifo] = None
        self.port = None  # our event-channel endpoint

        # Listener-side grant bookkeeping.
        self._granted_regions: list[SharedRegion] = []
        # Connector-side map bookkeeping: (gref, page) pairs.
        self._mapped_grefs: list[int] = []

        #: entries (msg_type, data) that did not fit in the FIFO,
        #: "placed in a waiting list to be sent once enough resources
        #: are available"; ``data`` is the entry joined into one bytes.
        self.waiting_list: deque[tuple[int, bytes]] = deque()
        self.waiting_bytes = 0
        self._waiting_space_waiters = WaitQueue(self.guest.sim)
        #: optional handler for ENTRY_STREAM entries (socket bypass);
        #: called as handler(payload_bytes) in drain-worker context.
        self.stream_handler = None

        self._drain_kick = WaitQueue(self.guest.sim)
        self._drain_worker = None

        # Statistics.
        self.pkts_sent = 0
        self.bytes_sent = 0
        self.pkts_received = 0
        self.bytes_received = 0
        self.notifies = 0
        #: sends whose data-available notify was skipped because the
        #: receiver had not advertised CONSUMER_WAITING.
        self.notifies_suppressed = 0
        #: drain-worker batched-pop counters (NAPI budget accounting).
        self.drain_batches = 0
        self.drain_entries = 0
        #: simulated time of the last packet in either direction (used by
        #: the module's optional idle-channel reaper).
        self.last_activity = self.guest.sim.now

        self.guest.sim.metrics.register("channels", self.counters)

    @property
    def state(self) -> ChannelState:
        """Lifecycle state -- owned by the controller's FSM."""
        return self.ctrl.fsm.state

    def snapshot_state(self) -> dict:
        """Controller, FIFO contents, waiting list, and data counters
        for the snapshot manifest."""
        return {
            "peer_domid": self.peer_domid,
            "peer_mac": str(self.peer_mac),
            "is_listener": self.is_listener,
            "ctrl": self.ctrl.snapshot_state(),
            "out_fifo": self.out_fifo.snapshot_state() if self.out_fifo else None,
            "in_fifo": self.in_fifo.snapshot_state() if self.in_fifo else None,
            "waiting_list": len(self.waiting_list),
            "waiting_bytes": self.waiting_bytes,
            "pkts_sent": self.pkts_sent,
            "bytes_sent": self.bytes_sent,
            "pkts_received": self.pkts_received,
            "bytes_received": self.bytes_received,
            "notifies": self.notifies,
            "notifies_suppressed": self.notifies_suppressed,
            "drain_batches": self.drain_batches,
            "drain_entries": self.drain_entries,
            "last_activity": self.last_activity,
        }

    def counters(self) -> dict:
        """Data-path counters summed into the simulator's ``channels``
        metrics group."""
        return {
            "pkts_sent": self.pkts_sent,
            "pkts_received": self.pkts_received,
            "notifies": self.notifies,
            "notifies_suppressed": self.notifies_suppressed,
            "drain_batches": self.drain_batches,
            "drain_entries": self.drain_entries,
        }

    # ------------------------------------------------------------------
    # Transport setup -- listener side (called by the controller)
    # ------------------------------------------------------------------
    def create_listener_transport(self):
        """Allocate and grant the FIFO pages and the unbound event
        channel (generator, guest context).  Returns the CREATE_CHANNEL
        message describing them."""
        guest = self.guest
        costs = guest.costs
        k = self.module.fifo_order
        n_data = fifo_pages_for_order(k)

        # Allocate and initialize the two FIFOs in our own memory.
        region_out = SharedRegion(guest.domid, 1 + n_data)
        region_in = SharedRegion(guest.domid, 1 + n_data)
        self.out_fifo = Fifo(region_out, k=k)
        self.in_fifo = Fifo(region_in, k=k)
        self._granted_regions = [region_out, region_in]

        # Grant every page to the connector; data-page grefs go into the
        # descriptor pages, descriptor-page grefs go into the message.
        table = guest.grant_table
        yield guest.exec(costs.grant_entry_update * 2 * (1 + n_data))
        desc_grefs = []
        for region, fifo in ((region_out, self.out_fifo), (region_in, self.in_fifo)):
            grefs = [table.grant_foreign_access(self.peer_domid, p) for p in region.pages]
            fifo.store_grefs(grefs[1:])
            desc_grefs.append(grefs[0])

        # Event channel: unbound port the connector will bind to.
        evtchn = guest.machine.hypervisor.evtchn
        self.port = evtchn.alloc_unbound(guest.domid, self.peer_domid)
        evtchn.set_handler(self.port, self._on_event)

        return CreateChannel(
            sender_domid=guest.domid,
            gref_out=desc_grefs[0],
            gref_in=desc_grefs[1],
            evtchn_port=self.port.port,
        )

    def discard_listener_transport(self) -> None:
        """Release a never-connected listener transport (bootstrap
        abort): close the port, revoke the grants, free the regions.
        Synchronous; the controller charges the grant-update cost."""
        guest = self.guest
        if self.port is not None:
            guest.machine.hypervisor.evtchn.close(self.port)
            self.port = None
        try:
            guest.grant_table.revoke_all_for(self.peer_domid)
        except GrantError:
            guest.grant_table.revoke_all_for(self.peer_domid, force=True)
        self._granted_regions = []
        self.out_fifo = self.in_fifo = None

    # ------------------------------------------------------------------
    # Transport setup -- connector side (called by the controller)
    # ------------------------------------------------------------------
    def map_connector_transport(self, peer_table, msg: CreateChannel):
        """Map the listener's FIFO pages and bind the event channel
        (generator, guest context).  Raises on any mapping/bind failure;
        the controller disengages and records MAP_FAILED."""
        guest = self.guest
        costs = guest.costs
        # Map the two descriptor pages.
        yield guest.exec(costs.hypercall + 2 * costs.grant_map_page)
        desc_out_page = peer_table.map_grant(msg.gref_out, guest.domid)
        desc_in_page = peer_table.map_grant(msg.gref_in, guest.domid)
        self._mapped_grefs += [msg.gref_out, msg.gref_in]

        # The listener's "out" FIFO is our "in" FIFO and vice versa.
        fifo_in = Fifo(desc_out_page.region)
        fifo_out = Fifo(desc_in_page.region)

        # Map the data pages named inside each descriptor page.
        for fifo in (fifo_in, fifo_out):
            grefs = fifo.load_grefs()
            yield guest.exec(costs.hypercall + len(grefs) * costs.grant_map_page)
            for gref in grefs:
                peer_table.map_grant(gref, guest.domid)
                self._mapped_grefs.append(gref)

        evtchn = guest.machine.hypervisor.evtchn
        self.port = evtchn.bind_interdomain(guest.domid, self.peer_domid, msg.evtchn_port)
        evtchn.set_handler(self.port, self._on_event)

        self.in_fifo = fifo_in
        self.out_fifo = fifo_out

    # ------------------------------------------------------------------
    # Data transfer
    # ------------------------------------------------------------------
    def fits(self, nbytes: int) -> bool:
        """Whether a payload of ``nbytes`` can ever fit the outgoing FIFO."""
        return self.out_fifo is not None and self.out_fifo.fits(nbytes)

    def send_packet(self, packet: Packet, precharge: float = 0.0):
        """Copy one L3 packet into the outgoing FIFO (generator, sender
        context).  Returns True when the channel took the packet (into
        the FIFO or onto the waiting list, flushed on space-available
        notifications) and False when the channel is unusable -- the
        caller then lets the packet continue down the standard path.

        Scatter-gather: the packet's wire format goes in as header and
        payload views (or the packet's cached serialization, when one is
        valid) written straight into the ring -- no joined intermediate
        bytes object on this path."""
        trace.mark(packet, "xenloop-fifo-push", self.guest.sim.now)
        taken = yield from self.send_entry_parts(
            ENTRY_IPV4, packet.to_l3_parts(), precharge
        )
        return taken

    def send_entry_parts(self, msg_type: int, parts, precharge: float = 0.0):
        """Copy one typed entry -- given as a sequence of buffer views
        forming its wire format -- into the outgoing FIFO (generator,
        sender context).  The base module sends ENTRY_IPV4 packets; the
        experimental socket-bypass variant sends ENTRY_STREAM frames.
        ``precharge`` is extra caller-side CPU work (e.g. the module's
        hash-table lookup) folded into the entry's first charge so the
        combination costs one calendar entry instead of two.

        The shared ACTIVE flag is re-checked right before the copy: a
        peer tearing down (migration, shutdown) clears it in the shared
        descriptor page, and anything we would push after its final
        drain would be lost.  Checking flag-then-push without an
        intervening yield point mirrors the real module's
        check-under-the-producer-lock.  The notify that follows a
        landed push is :meth:`_signal_data`'s."""
        guest = self.guest
        costs = guest.costs
        if not self._usable():
            return False
        nbytes = 0
        for part in parts:
            nbytes += len(part)
        yield guest.exec(precharge + costs.xenloop_fifo_op + costs.copy_cost(nbytes))
        if not self._usable():
            return False
        if self.waiting_list:
            # Preserve ordering behind already-waiting entries.
            self._park(msg_type, parts)
            self.out_fifo.set_producer_waiting()
            return True
        if self.out_fifo.push(parts, msg_type):
            self.pkts_sent += 1
            self.bytes_sent += nbytes
            self.last_activity = guest.sim.now
            yield from self._signal_data(None)
        else:
            self._park(msg_type, parts)
            self.out_fifo.set_producer_waiting()
        return True

    def _park(self, msg_type: int, parts) -> None:
        """Stage an entry on the waiting list, its parts joined once into
        durable bytes (the views may alias buffers the sender reuses)."""
        data = b"".join(parts)
        self.waiting_list.append((msg_type, data))
        self.waiting_bytes += len(data)

    def _usable(self) -> bool:
        return (
            self.state is ChannelState.CONNECTED
            and self.out_fifo is not None
            and self.out_fifo.active
            and self.in_fifo.active
        )

    def _flush_waiting(self):
        """Push as many waiting entries as now fit (generator).

        The whole flush is charged as ONE CPU segment: one fifo-op per
        push attempt (including the final failed one), one copy per entry
        actually pushed, plus -- when the receiver has armed its waiting
        flag -- the single data-available notify.  Same total cost as
        charging each step separately, in one calendar entry.  The
        notify decision is made right after the pushes (no yield point),
        like :meth:`send_entry_parts`.
        """
        guest = self.guest
        costs = guest.costs
        cost = 0.0
        pushed = False
        while self.waiting_list and self._usable():
            msg_type, data = self.waiting_list[0]
            cost += costs.xenloop_fifo_op
            if not self.out_fifo.push((data,), msg_type):
                self.out_fifo.set_producer_waiting()
                break
            self.waiting_list.popleft()
            self.waiting_bytes -= len(data)
            self.pkts_sent += 1
            self.bytes_sent += len(data)
            cost += costs.copy_cost(len(data))
            pushed = True
        if pushed:
            self.last_activity = guest.sim.now
            yield from self._signal_data(cost)
            self._waiting_space_waiters.wake_all()
        elif cost:
            yield guest.exec(cost)

    def _signal_data(self, cost: Optional[float]):
        """Data-available notify after a push landed (generator).

        Notification suppression (RING_PUSH_REQUESTS_AND_CHECK_NOTIFY
        shape): the receiver's CONSUMER_WAITING flag in the shared
        descriptor is read with no yield point since the push, so the
        check pairs atomically against the receiver's arm-then-recheck,
        and the notify hypercall is issued only when the flag is armed.
        The flag is the receiver's to clear; a fault-injected lost
        notify leaves it armed, so the next push retries.  ``cost``
        is CPU work not yet charged (a flush's pushes and copies), paid
        in the same segment as the notify -- or alone, even when 0.0,
        when the notify is suppressed.  ``None``: the caller already
        charged its work, so a suppressed notify charges nothing."""
        guest = self.guest
        if self.out_fifo.consumer_waiting:
            self.notifies += 1
            NOTIFY_STATS.fifo_notifies += 1
            yield guest.exec((cost or 0.0) + guest.costs.evtchn_send)
            if self.port is not None and not self.port.closed:
                guest.machine.hypervisor.evtchn.notify(self.port)
        else:
            self.notifies_suppressed += 1
            NOTIFY_STATS.fifo_suppressed += 1
            if cost is not None:
                yield guest.exec(cost)

    def wait_waiting_space(self):
        """Event that fires when the waiting list drains a bit (used by
        the socket-bypass variant for sender flow control)."""
        return self._waiting_space_waiters.wait("xl-waitspace")

    # -- receive side ---------------------------------------------------
    def _on_event(self) -> None:
        """Event-channel upcall (already charged virq_entry).

        CONSUMER_WAITING is cleared here, at delivery, not when the
        drain worker actually resumes: the kick below guarantees a full
        drain pass, so peer pushes landing in the meantime can already
        suppress their notifies.
        """
        in_fifo = self.in_fifo
        if in_fifo is not None:
            in_fifo.clear_consumer_waiting()
        self._drain_kick.wake_one()

    def _start_drain_worker(self) -> None:
        if self._drain_worker is None:
            self._drain_worker = self.guest.spawn(self._drain_loop(), name="xl-drain")

    def _drain_loop(self):
        """NAPI-style receive worker.

        On wakeup the shared CONSUMER_WAITING flag is (already) clear;
        the FIFO is drained in budget-bounded batches -- one aggregated
        CPU charge per batch -- with peer pushes during the drain
        suppressing their notifies.  Before sleeping the worker re-arms
        the flag and then makes the final occupancy re-check: a push
        that read the flag as clear necessarily landed before the
        re-check (both sides' flag/occupancy steps have no yield point
        between them), so no entry is ever stranded until the idle
        reaper fires.
        """
        guest = self.guest
        costs = guest.costs
        #: NAPI budget: max entries popped per charged batch; bounds the
        #: latency distortion from charging a batch's copies as one
        #: segment (cost total is exact -- copy_cost is linear in bytes).
        budget = costs.xenloop_napi_budget
        while self.state is ChannelState.CONNECTED:
            in_fifo = self.in_fifo
            if in_fifo is None:
                return
            in_fifo.clear_consumer_waiting()
            drained = 0
            while True:
                if self.zero_copy_rx:
                    # Entries are charged one by one, but counted in
                    # budget-bounded batches as the copying drain's are.
                    run = 0
                    while run < budget:
                        if not (yield from self._drain_one_zero_copy()):
                            break
                        run += 1
                    if run:
                        self._count_batch(run)
                        drained += run
                    if run < budget:
                        break
                    continue
                # Pop a batch, charge ONE aggregated segment for the
                # FIFO bookkeeping + copies, then deliver the batch.
                burst = []
                cost = 0.0
                in_fifo = self.in_fifo
                while len(burst) < budget:
                    entry = in_fifo.pop()
                    if entry is None:
                        break
                    burst.append(entry)
                    cost += costs.xenloop_fifo_op + costs.copy_cost(len(entry[1]))
                if not burst:
                    break
                self._count_batch(len(burst))
                yield guest.exec(cost)
                now = guest.sim.now
                self.last_activity = now
                for msg_type, data in burst:
                    self._deliver(msg_type, data, now)
                drained += len(burst)
            # Space-available notification for a waiting producer --
            # unconditional: the peer parked entries and is expecting it.
            if drained and self.in_fifo.producer_waiting:
                self.in_fifo.clear_producer_waiting()
                self.notifies += 1
                NOTIFY_STATS.fifo_notifies += 1
                yield guest.exec(costs.evtchn_send)
                guest.machine.hypervisor.evtchn.notify(self.port)
            # Our own waiting list may be flushable now.
            if self.waiting_list:
                yield from self._flush_waiting()
            # Teardown initiated by the peer?
            if not self.in_fifo.active or not self.out_fifo.active:
                yield from self.ctrl.peer_fin()
                return
            # Re-arm, then the final pre-sleep occupancy re-check: an
            # entry pushed while we were draining (its notify suppressed)
            # must be found NOW, not when the idle reaper fires.
            in_fifo = self.in_fifo
            if in_fifo is None:
                return
            in_fifo.set_consumer_waiting()
            if not in_fifo.is_empty:
                continue  # loop top clears the flag and drains
            yield self._drain_kick.wait("xl-drain-kick")

    def _count_batch(self, entries: int) -> None:
        self.drain_batches += 1
        self.drain_entries += entries
        NOTIFY_STATS.drain_batches += 1
        NOTIFY_STATS.drain_entries += entries

    def _deliver(self, msg_type: int, data: bytes, now: float) -> None:
        """Hand one popped entry up: an ENTRY_IPV4 packet to the stack,
        an ENTRY_STREAM frame to the stream handler (entries of other
        types, or frames with no handler, are dropped)."""
        if msg_type == ENTRY_IPV4:
            packet = Packet.from_l3_bytes(data)
            trace.adopt(packet, self.guest.sim)
            trace.mark(packet, "xenloop-fifo-pop", now)
            self.pkts_received += 1
            self.bytes_received += len(data)
            self.guest.stack.rx_network(packet)
        elif msg_type == ENTRY_STREAM and self.stream_handler is not None:
            self.pkts_received += 1
            self.bytes_received += len(data)
            self.stream_handler(data)

    def _drain_one_zero_copy(self):
        """The receive-side zero-copy design alternative (Sect. 3.3,
        "comparing options for data transfer"): the packet is processed
        directly out of the FIFO and the slots are released only after
        the protocol stack has completed processing -- which holds
        "precious space in FIFO ... during protocol processing" and
        back-pressures the sender.  Implemented (and rejected) by the
        authors; reproduced here for the ablation benchmark.  Entries
        that are not packets take :meth:`_deliver`, as in a copying
        drain."""
        guest = self.guest
        costs = guest.costs
        entry = self.in_fifo.peek_view()
        if entry is None:
            return False
        msg_type, segments, slots = entry
        yield guest.exec(costs.xenloop_fifo_op)  # no copy!
        # The ring views stay valid until advance(); the bytes
        # materialize exactly once, inside from_l3_bytes for a packet.
        data = segments[0] if len(segments) == 1 else b"".join(segments)
        WIRE_STATS.fifo_bytes_out += len(data)
        now = self.last_activity = guest.sim.now
        if msg_type != ENTRY_IPV4:
            self._deliver(msg_type, bytes(data), now)
        else:
            packet = Packet.from_l3_bytes(data)
            trace.adopt(packet, guest.sim)
            trace.mark(packet, "xenloop-fifo-pop", now)
            self.pkts_received += 1
            self.bytes_received += packet.l3_len
            # Protocol processing runs inline, with the FIFO space held...
            yield from guest.stack.ipv4.input(packet, _ZERO_COPY_SOURCE)
            # ...and stays held until the application's read copies the
            # payload out of the sk_buff that points into the FIFO.
            yield guest.sim.timeout(guest.costs.zerocopy_hold)
        self.in_fifo.advance(slots)
        return True

    # ------------------------------------------------------------------
    # Teardown resource actions (called by the controller)
    # ------------------------------------------------------------------
    def take_saved_packets(self) -> list[bytes]:
        """Flush the waiting list into a resendable snapshot: ENTRY_IPV4
        wire images survive (the module resends them via netfront);
        ENTRY_STREAM frames cannot be resent and are dropped; blocked
        senders are failed as in :meth:`abort_waiting`."""
        saved = [data for msg_type, data in self.waiting_list if msg_type == ENTRY_IPV4]
        self.abort_waiting()
        return saved

    def abort_waiting(self) -> int:
        """Empty the waiting list without saving anything (bootstrap
        abort / never-connected teardown): blocked senders are failed
        with :class:`ChannelDeadError`.  Returns the number of entries
        dropped."""
        dropped = len(self.waiting_list)
        self.waiting_list.clear()
        self.waiting_bytes = 0
        # Waiters must learn the channel died, not be woken as if space
        # appeared (their next send would silently park on a dead list).
        self._waiting_space_waiters.fail_all(
            ChannelDeadError(f"channel to dom{self.peer_domid} died while waiting for space")
        )
        return dropped

    def notify_stream_death(self) -> None:
        if self.stream_handler is not None:
            self.stream_handler(None)  # None signals "channel gone"

    def drain_remaining(self):
        """Receive whatever is still pending in the incoming FIFO
        (generator; teardown path), one charged entry at a time,
        delivered as the drain worker delivers it."""
        guest = self.guest
        costs = guest.costs
        while self.in_fifo is not None:
            entry = self.in_fifo.pop()
            if entry is None:
                return
            msg_type, data = entry
            yield guest.exec(costs.xenloop_fifo_op + costs.copy_cost(len(data)))
            self._deliver(msg_type, data, guest.sim.now)

    def disengage(self, notify_peer: bool):
        """Unmap/revoke shared memory and close our event-channel port.

        The steps are "slightly asymmetrical depending upon whether
        initially each guest bootstrapped in the role of a listener or a
        connector" (Sect. 3.3): the connector unmaps the listener's
        pages; the listener revokes its grant entries (forcing if the
        peer died without unmapping) and frees the FIFO memory.
        """
        guest = self.guest
        costs = guest.costs
        if self.is_listener:
            try:
                guest.grant_table.revoke_all_for(self.peer_domid)
            except GrantError:
                guest.grant_table.revoke_all_for(self.peer_domid, force=True)
            yield guest.exec(costs.grant_entry_update * max(1, len(self._granted_regions)))
            self._granted_regions = []
        else:
            peer_table = guest.machine.hypervisor.grant_tables.get(self.peer_domid)
            n = len(self._mapped_grefs)
            if n:
                yield guest.exec(costs.hypercall + n * costs.grant_unmap_page)
            if peer_table is not None:
                for gref in self._mapped_grefs:
                    try:
                        peer_table.unmap_grant(gref, guest.domid)
                    except GrantError:
                        pass  # listener already revoked (force path)
            self._mapped_grefs = []
        if self.port is not None:
            if notify_peer and self.port.peer is not None:
                yield guest.exec(costs.evtchn_send)
                guest.machine.hypervisor.evtchn.notify(self.port)
            guest.machine.hypervisor.evtchn.close(self.port)
            self.port = None
        self.out_fifo = self.in_fifo = None
        self._drain_kick.wake_one()  # let the drain worker observe CLOSED

    def __repr__(self) -> str:  # pragma: no cover
        role = "listener" if self.is_listener else "connector"
        return f"<Channel {self.guest.name}<->dom{self.peer_domid} {role} {self.state.value}>"
