"""Netback: the Dom0 half of the split driver, plus its bridge port.

Transmit path (guest -> world): a virq kicks the drain worker, which
pays the grant map/copy/unmap hypercalls per packet, rebuilds the frame
in Dom0, and forwards it through the software bridge *inline* (so frame
ordering is preserved).

Receive path (world -> guest): the bridge delivers frames to
:class:`VifBridgePort`; netback either grant-copies small packets into
a pre-shared page or grant-transfers page-sized ones (paying the page
zeroing the paper calls out as expensive), pushes them onto the guest's
RX ring, and notifies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import trace
from repro.net.bridge import BridgePort
from repro.net.packet import Packet
from repro.sim.resources import Store, WaitQueue
from repro.xen.event_channel import NOTIFY_STATS
from repro.xennet.netfront import pages_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.xen.domain import Domain
    from repro.xennet.netfront import Netfront
    from repro.xennet.ring import SlottedRing

__all__ = ["Netback", "VifBridgePort"]


class VifBridgePort(BridgePort):
    """The bridge port representing one guest's vif."""
    def __init__(self, netback: "Netback"):
        super().__init__(f"port-{netback.vif_name}")
        self.netback = netback

    def deliver(self, packet: Packet):
        """Bridge -> guest: hand the frame to netback's receive path."""
        yield from self.netback.to_guest(packet)


class Netback:
    """Dom0 half of one vif: TX drain worker + RX injection + bridge port."""
    def __init__(
        self,
        dom0: "Domain",
        netfront: "Netfront",
        tx_ring: "SlottedRing",
        rx_store: Store,
        evtchn_port,
    ):
        self.dom0 = dom0
        self.netfront = netfront
        self.vif_name = f"vif{netfront.guest.domid}.0"
        self.tx_ring = tx_ring
        self.rx_store = rx_store
        self.evtchn_port = evtchn_port
        self.port = VifBridgePort(self)
        self.detached = False

        self._kick_name = f"{self.vif_name}-kick"
        self._kick = WaitQueue(dom0.sim)
        self._worker = dom0.spawn(self._tx_drain_loop(), name=f"{self.vif_name}-netback")
        self.tx_packets = 0
        self.rx_packets = 0

    @property
    def bridge(self):
        """The Dom0 software bridge on the current machine."""
        return self.dom0.machine.bridge

    # -- interrupt handler (runs in Dom0 context) -----------------------------
    def on_interrupt(self) -> None:
        """Guest kicked us: wake the TX drain worker.

        The request event index is disarmed here, at upcall delivery,
        rather than when the worker resumes: pushes landing during the
        dom0 wakeup latency are already covered by this kick, so their
        notifies can be suppressed that much earlier.
        """
        self.tx_ring.req_event_armed = False
        self._kick.wake_one()

    #: max TX requests drained per charged burst; bounds how much
    #: latency the aggregated charge can shift onto the first packet.
    TX_BURST = 64

    # -- guest -> bridge ----------------------------------------------------
    def _tx_drain_loop(self):
        dom0 = self.dom0
        costs = dom0.costs
        ring = self.tx_ring
        while True:
            if self.detached:
                return
            if not ring.has_requests:
                # Going to sleep: advertise it by arming the request event
                # index, then make the final check for requests pushed
                # while we were unarmed (their notify was suppressed --
                # nobody else will wake us for them).
                ring.req_event_armed = True
                if ring.has_requests:
                    ring.req_event_armed = False
                    continue
                yield self._kick.wait(self._kick_name)
                ring.req_event_armed = False
                # Credit-scheduler delay before Dom0's worker actually runs.
                yield dom0.sim.timeout(costs.dom0_wakeup_latency)
                continue
            # Drain a burst of requests and charge ONE aggregated CPU
            # segment for the per-packet map/copy/unmap hypercall work
            # plus the completion notifies (same total cost as charging
            # each packet separately -- copy_cost is linear).  Note the
            # cost terms only need the frame *size*: netback forwards on
            # lengths and addresses alone and never touches the packet
            # body, so a lazily-parsed packet passes through unparsed.
            burst: list[Packet] = []
            cost = 0.0
            while ring.has_requests and len(burst) < self.TX_BURST:
                packet: Packet = ring.pop_request()
                size = packet.wire_len
                npages = pages_for(size)
                cost += (
                    costs.hypercall
                    + costs.grant_map_page * npages
                    + costs.copy_cost(size)
                    + costs.netback_per_packet
                    + costs.hypercall
                    + costs.grant_unmap_page * npages
                )
                burst.append(packet)
            yield dom0.exec(cost)
            for packet in burst:
                if self.detached:
                    # detach() landed mid-burst (e.g. during a forward):
                    # the port is closed, drop the rest of the burst.
                    return
                ring.push_response(packet.wire_len)
                self.tx_packets += 1
                trace.mark(packet, "netback-tx", dom0.sim.now)
                # Completion notify back to the guest -- only when the
                # transmit loop armed the response event index (it is
                # blocked on ring space); completions are otherwise
                # reclaimed lazily at the next transmit.  Netfront clears
                # the flag; leaving it set here means a lost notify is
                # retried by the next completion.
                if ring.rsp_event_armed:
                    NOTIFY_STATS.ring_notifies += 1
                    yield dom0.exec(costs.evtchn_send)
                    if self.evtchn_port is not None:
                        dom0.machine.hypervisor.evtchn.notify(self.evtchn_port)
                else:
                    NOTIFY_STATS.ring_suppressed += 1
                # Forward through the bridge inline to preserve ordering.
                yield from self.bridge.forward(self.port, packet)

    # -- bridge -> guest -------------------------------------------------------
    def to_guest(self, packet: Packet):
        """Generator (Dom0 context): push one frame to the guest."""
        if self.detached:
            return
        dom0 = self.dom0
        costs = dom0.costs
        size = packet.wire_len
        if size <= costs.netback_copy_threshold:
            # Small packet: grant-copy into a pre-shared page.
            cost = costs.hypercall + costs.copy_cost(size) + costs.netback_per_packet
        else:
            # Large packet: page transfer, with the pages zeroed in
            # advance "to avoid any unintentional data leakage" (Sect. 2).
            npages = pages_for(size)
            cost = (
                costs.hypercall
                + costs.grant_transfer_page * npages
                + costs.page_zero * npages
                + costs.netback_per_packet
            )
        yield dom0.exec(cost)
        trace.mark(packet, "netback-rx-to-guest", dom0.sim.now)
        yield self.rx_store.put(packet)  # blocks while the guest RX ring is full
        self.rx_packets += 1
        # RX event index: the guest disarms it while its interrupt handler
        # drains the store, so frames landing mid-drain skip the notify
        # (and its hypercall charge) -- the handler's final check picks
        # them up.  Only the guest re-arms the flag.
        if self.netfront.rx_event_armed:
            NOTIFY_STATS.ring_notifies += 1
            yield dom0.exec(costs.evtchn_send)
            if self.evtchn_port is not None:
                dom0.machine.hypervisor.evtchn.notify(self.evtchn_port)
        else:
            NOTIFY_STATS.ring_suppressed += 1

    # -- teardown ---------------------------------------------------------
    def detach(self) -> None:
        """Tear the netback down (guest shutdown or migration-out)."""
        self.detached = True
        self.bridge.remove_port(self.port)
        self._kick.wake_one()
        if self.evtchn_port is not None:
            self.dom0.machine.hypervisor.evtchn.close(self.evtchn_port)
            self.evtchn_port = None
