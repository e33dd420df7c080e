"""Netfront: the guest-side half of the split driver.

The guest's ``vif`` Ethernet device.  Transmit requests are granted to
the driver domain and pushed onto the TX ring; receive packets arrive
from netback on the RX ring and are fed to the guest stack's softirq.

Per-packet grant-table traffic on the data path is *cost-modelled*
(``grant_entry_update`` per page at the sender, map/unmap hypercalls in
netback) rather than routed through the real
:class:`~repro.xen.grant_table.GrantTable` object -- the control-path
users of grants (XenLoop channel bootstrap) use the real table with
full semantics.  See DESIGN.md "simplifications".

Suspend/resume (for live migration) follows the paper's Sect. 3.4:
while suspended, outgoing packets are saved on a limbo list and the
senders stay blocked (backpressure, not loss); on resume the saved
packets are re-submitted through the new ring.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro import trace
from repro.net.devices import NetDevice
from repro.net.packet import Packet
from repro.sim.engine import Event
from repro.sim.resources import Store
from repro.xen.event_channel import NOTIFY_STATS
from repro.xen.page import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.xen.domain import Domain
    from repro.xennet.ring import SlottedRing

__all__ = ["Netfront", "VifDevice"]


def pages_for(nbytes: int) -> int:
    """Number of 4 KiB pages a buffer of ``nbytes`` spans.

    Integer ceiling division: this sits on the per-packet cost path
    (netfront tx_cost, netback map/copy), so no float round-trip.
    """
    if nbytes <= 0:
        return 1
    return -(-nbytes // PAGE_SIZE)


class VifDevice(NetDevice):
    """The paravirtual network interface exposed to the guest stack."""

    def __init__(self, netfront: "Netfront", name: str, mac, mtu: int = 1500):
        # gso=True: netfront advertises TSO, so TCP hands it super-segments.
        super().__init__(name, mac, mtu=mtu, gso=True)
        self.netfront = netfront

    def tx_cost(self, packet: Packet) -> float:
        """Ring request build + per-page grant entries.

        The notify hypercall is NOT included here: since the transmit
        loop suppresses it whenever netback's drain worker is already
        awake, ``evtchn_send`` is charged at the notify site, only when
        the kick is actually sent.
        """
        costs = self.netfront.guest.costs
        npages = pages_for(packet.wire_len)
        # Ring request build + one grant entry per page (no hypercall at
        # the granting side).
        return costs.netfront_tx + costs.grant_entry_update * npages

    def rx_cost(self, packet: Packet) -> float:
        """Netfront per-packet receive bookkeeping."""
        return self.netfront.guest.costs.netfront_rx

    def queue_xmit(self, packet: Packet) -> Event:
        """Hand the frame to netfront's transmit queue."""
        return self.netfront.start_xmit(packet)


class Netfront:
    """Guest half of the split driver: vif device, rings, suspend/resume."""
    def __init__(self, guest: "Domain", vif_name: str):
        self.guest = guest
        self.vif = VifDevice(self, vif_name, guest.mac)
        # Wiring (rings, event channel, netback) is installed by
        # repro.xennet.setup.connect_vif.
        self.tx_ring: "SlottedRing | None" = None
        self.rx_store: Optional[Store] = None
        self.evtchn_port = None
        self.netback = None

        self.suspended = False
        self._limbo: deque[tuple[Packet, Event]] = deque()
        self._txq: deque[tuple[Packet, Event]] = deque()
        self._tx_kick = guest.sim.event(name="netfront-tx-kick")
        self._tx_worker = guest.spawn(self._tx_loop(), name="netfront-tx")
        self.tx_packets = 0
        self.rx_packets = 0
        #: the RX ring's "event index": whether the guest wants an upcall
        #: for newly delivered receive frames.  Armed except while the
        #: interrupt handler is draining; netback reads it at push time
        #: and suppresses the notify when clear.  Only the guest (the
        #: consumer) writes it, so a lost notify leaves it armed and the
        #: next frame's notify recovers.
        self.rx_event_armed = True

    # -- transmit ---------------------------------------------------------
    def start_xmit(self, packet: Packet) -> Event:
        """Called by the vif device in sender context.  The returned event
        fires once the packet occupies a TX ring slot (backpressure)."""
        trace.mark(packet, "netfront-tx", self.guest.sim.now)
        done = self.guest.sim.event(name="netfront-xmit")
        if self.suspended:
            self._limbo.append((packet, done))
            return done
        self._txq.append((packet, done))
        self._kick_tx()
        return done

    def _kick_tx(self) -> None:
        if not self._tx_kick.triggered:
            self._tx_kick.succeed()

    def _tx_loop(self):
        guest = self.guest
        costs = guest.costs
        while True:
            ring = self.tx_ring
            if ring is not None and ring.has_responses:
                # Lazy completion reclaim (NAPI netfront idiom): consume
                # finished responses opportunistically while transmitting,
                # so completions almost never need an interrupt.
                while ring.pop_response() is not None:
                    pass
            if not self._txq or self.suspended or ring is None:
                if ring is not None and ring.outstanding > 0:
                    # Going idle with slots still held: arm the response
                    # event index so the completions that reclaim them
                    # get an upcall, then make the final check for any
                    # that landed (suppressed) while we were unarmed.
                    ring.rsp_event_armed = True
                    if ring.has_responses:
                        ring.rsp_event_armed = False
                        continue  # loop top reclaims them
                self._tx_kick = guest.sim.event(name="netfront-tx-kick")
                yield self._tx_kick
                if ring is not None:
                    # Woken to transmit: completions go back to lazy
                    # reclaim in this loop.
                    ring.rsp_event_armed = False
                continue
            if ring.free_slots == 0:
                # Blocked on ring space: arm the response event index,
                # then make the final check for completions that landed
                # while we were unarmed (those sent no upcall) before
                # actually sleeping.
                ring.rsp_event_armed = True
                if ring.has_responses:
                    ring.rsp_event_armed = False
                    continue  # loop top reclaims them
                yield ring.wait_space()
                continue
            packet, done = self._txq.popleft()
            ring.push_request(packet)
            self.tx_packets += 1
            self.vif.count_tx(packet)
            done.succeed()
            # RING_PUSH_REQUESTS_AND_CHECK_NOTIFY: kick the driver domain
            # only if its drain worker advertised it is (going) asleep.
            # The armed flag is netback's to clear -- leaving it set means
            # a fault-injected lost notify is retried by the next push.
            port = self.evtchn_port
            if ring.req_event_armed:
                NOTIFY_STATS.ring_notifies += 1
                yield guest.exec(costs.evtchn_send)
                if port is not None and not port.closed:
                    guest.machine.hypervisor.evtchn.notify(port)
            else:
                NOTIFY_STATS.ring_suppressed += 1
                if port is not None:
                    port.notifies_suppressed += 1

    # -- interrupt (virq) handler ------------------------------------------
    def on_interrupt(self) -> None:
        """Runs in guest context after virq_entry is charged: drain RX
        packets into the stack backlog and consume TX completions.

        Follows the suppression protocol's consumer side: disarm the RX
        event index while draining (netback then skips the notify for
        frames pushed mid-drain -- this loop will see them), re-arm, and
        make the final occupancy check before returning so nothing is
        stranded in the disarmed window.
        """
        while True:
            self.rx_event_armed = False
            store = self.rx_store
            if store is not None:
                while True:
                    found, packet = store.try_get()
                    if not found:
                        break
                    self.rx_packets += 1
                    self.vif.deliver_up(packet)
            ring = self.tx_ring
            if ring is not None and ring.has_responses:
                while ring.pop_response() is not None:
                    pass  # slot freed; wait_space waiters fire in the ring
                # Completions are reclaimed lazily by the tx loop; the
                # armed flag only needs to stay set while that loop is
                # blocked on space, and we just freed some.
                ring.rsp_event_armed = False
            self.rx_event_armed = True
            # Final check: anything delivered while we were disarmed was
            # pushed without a notify -- pick it up now instead of sleeping.
            if store is not None and len(store):
                continue
            break

    # -- migration support -----------------------------------------------
    def suspend(self) -> None:
        """Freeze transmission; queued packets move to the limbo list."""
        self.suspended = True
        # Anything still queued locally is saved for after the move.
        while self._txq:
            self._limbo.append(self._txq.popleft())

    def disconnect(self) -> None:
        """Tear down ring/event-channel wiring (netback side included)."""
        if self.netback is not None:
            self.netback.detach()
            self.netback = None
        if self.evtchn_port is not None:
            self.guest.machine.hypervisor.evtchn.close(self.evtchn_port)
            self.evtchn_port = None
        self.tx_ring = None
        self.rx_store = None

    def resume(self) -> None:
        """Re-submit saved packets through the (new) ring after migration."""
        self.suspended = False
        while self._limbo:
            packet, done = self._limbo.popleft()
            self._txq.append((packet, done))
        self._kick_tx()
