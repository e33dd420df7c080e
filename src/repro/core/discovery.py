"""Dom0 Domain Discovery module (paper Sect. 3.2).

Every ``discovery_period`` (5 s) the module scans XenStore -- which
only Dom0 can read across domains -- for guests advertising a
``xenloop`` entry, collates their [guest-ID, MAC] identity pairs, and
announces them to the willing guests through the software bridge.
Guests absent from XenStore simply stop appearing in announcements,
and peers prune them: soft-state discovery with no explicit
de-registration message.

Two announcement protocols are supported (``mode``):

* ``"announce"`` (the paper's, and the default): every scan unicasts
  the *full* roster to every willing guest -- O(n) frames of O(n)
  bytes per scan.  Fine for the paper's 2-30 guest experiments;
  collapses at cluster scale.
* ``"delta"`` (the thousand-guest control plane): a *changed* scan
  multicasts ONE epoch-tagged :class:`~repro.core.protocol.RosterDelta`
  (joins/leaves only) to the link-local
  :data:`~repro.core.protocol.XENLOOP_MCAST` address; a quiescent scan
  sends nothing at all (no frame is even serialized).  Every
  ``full_sync_every`` scans a :class:`~repro.core.protocol.FullSync`
  carries the complete roster + epoch so guests that missed a delta
  resynchronise.  Dom0 also attaches a :class:`Dom0ControlPort` to the
  bridge (pinned in the FDB under :data:`DOM0_MAC`) and answers guests'
  :class:`~repro.core.protocol.WhoIs` queries with
  :class:`~repro.core.protocol.PeerInfo` -- the lookup service that
  lets a guest keep only O(active peers) mapping state.

Either way a guest applies what it hears to the same
:class:`~repro.core.roster.RosterView`: an Announce is an epoch-free
full sync, so the two modes differ only in what goes on the wire.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.protocol import (
    DOM0_MAC,
    XENLOOP_MCAST,
    Announce,
    FullSync,
    PeerInfo,
    RosterDelta,
    WhoIs,
    parse_message,
)
from repro.net.addr import MacAddr
from repro.net.bridge import BridgePort
from repro.net.ethernet import ETH_P_XENLOOP
from repro.net.packet import EthHeader, Packet
from repro.xen.xenstore import XenStoreError

if TYPE_CHECKING:  # pragma: no cover
    from repro.xen.machine import XenMachine

__all__ = ["DiscoveryModule", "Dom0ControlPort", "DOM0_MAC"]


class Dom0ControlPort(BridgePort):
    """Bridge port through which Dom0 receives XenLoop control frames.

    Only attached in ``delta`` mode, and pinned in the bridge FDB under
    :data:`DOM0_MAC` so WhoIs unicasts reach exactly this port instead
    of being flooded to every guest (and out of the uplink).
    """

    def __init__(self, discovery: "DiscoveryModule"):
        super().__init__(f"port-dom0-{discovery.machine.name}")
        self.discovery = discovery

    def deliver(self, packet: Packet):
        """Hand a frame to the discovery module (generator, Dom0 ctx)."""
        yield from self.discovery.control_input(packet)


class DiscoveryModule:
    """Dom0-resident periodic XenStore scanner and announcer.

    Each scan replaces ``roster`` (the currently advertising guests)
    with the collated [guest-ID, MAC] list; delta mode multicasts the
    difference.
    """

    def __init__(
        self,
        machine: "XenMachine",
        period: float | None = None,
        mode: str = "announce",
        full_sync_every: int = 8,
    ):
        if mode not in ("announce", "delta"):
            raise ValueError(f"unknown discovery mode {mode!r}")
        self.machine = machine
        self.period = period if period is not None else machine.costs.discovery_period
        self.mode = mode
        self.full_sync_every = full_sync_every
        self.running = True
        self.scans = 0
        self.announcements_sent = 0
        #: delta-mode counters (all stay 0 in announce mode).
        self.epoch = 0
        self.deltas_sent = 0
        self.full_syncs_sent = 0
        self.quiescent_scans = 0
        self.whois_answered = 0
        #: MAC -> guest-ID of guests seen advertising in the last scan.
        self.roster: dict[MacAddr, int] = {}
        self.control_port: Dom0ControlPort | None = None
        if mode == "delta":
            # Attach (and pin) the WhoIs answering port.  Announce mode
            # deliberately leaves the bridge untouched: the paper path
            # must stay frame-for-frame identical to the goldens.
            self.control_port = Dom0ControlPort(self)
            machine.bridge.add_port(self.control_port)
            machine.bridge.pin(DOM0_MAC, self.control_port)
        machine.dom0.spawn(self._scan_loop(), name="xl-discovery")

    def stop(self) -> None:
        """Stop scanning (no further announcements are sent)."""
        self.running = False

    def snapshot_state(self) -> dict:
        """Scanner progress and the current soft-state roster."""
        return {
            "running": self.running,
            "period": self.period,
            "mode": self.mode,
            "full_sync_every": self.full_sync_every,
            "scans": self.scans,
            "announcements_sent": self.announcements_sent,
            "epoch": self.epoch,
            "deltas_sent": self.deltas_sent,
            "full_syncs_sent": self.full_syncs_sent,
            "quiescent_scans": self.quiescent_scans,
            "whois_answered": self.whois_answered,
            "roster": {str(mac): domid for mac, domid in self.roster.items()},
        }

    # -- one scan ------------------------------------------------------
    def collate(self) -> list[tuple[int, MacAddr]]:
        """Read XenStore and build the [guest-ID, MAC] list of willing guests."""
        store = self.machine.xenstore
        entries: list[tuple[int, MacAddr]] = []
        try:
            domids = store.ls(0, "/local/domain")
        except XenStoreError:
            return entries
        for domid_str in domids:
            try:
                domid = int(domid_str)
            except ValueError:
                continue
            path = f"/local/domain/{domid}/xenloop"
            if not store.exists(0, path):
                continue
            try:
                mac = MacAddr(store.read(0, path))
            except (XenStoreError, ValueError):
                continue
            entries.append((domid, mac))
        return entries

    def _scan_loop(self):
        dom0 = self.machine.dom0
        costs = dom0.costs
        while self.running:
            yield dom0.sim.timeout(self.period)
            if not self.running:
                return
            self.scans += 1
            # One XenStore directory listing plus a read per guest.
            yield dom0.exec(costs.xenstore_op)
            entries = self.collate()
            yield dom0.exec(costs.xenstore_op * max(1, len(entries)))
            joins, leaves = self._update_roster(entries)
            if self.mode == "delta":
                self._delta_scan(joins, leaves)
                continue
            if not entries:
                continue
            # One announcement, one serialization: every recipient gets
            # the identical payload bytes (hoisted out of the loop).
            payload = Announce(sender_domid=dom0.domid, entries=entries).to_bytes()
            for domid, mac in entries:
                # Announcements are periodic and idempotent, so a delay
                # rule here is equivalent to a drop of this scan's frame.
                deliver, delay, dup = self._fault_tap(domid, "Announce")
                if not deliver or delay > 0.0:
                    continue
                for _ in range(1 + dup):
                    self.announcements_sent += 1
                    self._inject(mac, payload)

    def _update_roster(
        self, entries: list[tuple[int, MacAddr]]
    ) -> tuple[list[tuple[int, MacAddr]], list[tuple[int, MacAddr]]]:
        """Replace the roster with one scan; returns (joins, leaves).

        A guest that re-advertised under a new guest-ID while keeping
        its MAC (crash/restart) is reported as a *join* carrying the new
        ID -- receivers detect the identity change by the reused key.
        """
        fresh = {mac: domid for domid, mac in entries}
        roster = self.roster
        joins = [(domid, mac) for mac, domid in fresh.items() if roster.get(mac) != domid]
        leaves = [(domid, mac) for mac, domid in roster.items() if mac not in fresh]
        self.roster = fresh
        return joins, leaves

    # -- delta mode ----------------------------------------------------
    def _delta_scan(self, joins, leaves) -> None:
        """Delta-mode tail of one scan: multicast the changes (if any)
        plus the periodic full sync."""
        dom0 = self.machine.dom0
        if joins or leaves:
            # Sorted so the frame bytes -- and every receiver's apply
            # order -- do not depend on the XenStore listing order.
            joins.sort()
            leaves.sort()
            self.epoch += 1
            self._multicast(RosterDelta(dom0.domid, self.epoch, joins, leaves))
            self.deltas_sent += 1
        else:
            # Quiescent-scan fast path: nothing changed, so no frame is
            # constructed, serialized, or sent this period.
            self.quiescent_scans += 1
        if self.full_sync_every and self.scans % self.full_sync_every == 0:
            roster = sorted((domid, mac) for mac, domid in self.roster.items())
            self._multicast(FullSync(dom0.domid, self.epoch, roster))
            self.full_syncs_sent += 1

    def _multicast(self, msg) -> None:
        """Inject one link-local multicast control frame into the bridge
        (floods to every local guest; never leaves the machine)."""
        self.announcements_sent += 1
        self._inject(XENLOOP_MCAST, msg.to_bytes())

    def _inject(self, dst: MacAddr, payload: bytes) -> None:
        """Inject one Dom0-originated control frame into the bridge,
        which forwards it to ``dst`` (a guest's vif, or the multicast
        flood)."""
        frame = Packet(
            payload=payload,
            eth=EthHeader(dst=dst, src=DOM0_MAC, ethertype=ETH_P_XENLOOP),
        )
        self.machine.bridge.input(None, frame)

    def _fault_tap(self, domid: int, kind: str) -> tuple[bool, float, int]:
        """Fault tap for one control frame to guest ``domid`` (the rule's
        ``guest`` matches the recipient): ``(deliver, delay, dup)``,
        ``(True, 0.0, 0)`` with no control rules installed."""
        plan = self.machine.dom0.sim.fault_plan
        if plan is None or not plan.has_control_rules:
            return True, 0.0, 0
        target = self.machine.hypervisor.domains.get(domid)
        return plan.on_control(target.name if target is not None else f"dom{domid}", kind)

    # -- WhoIs service (delta mode, Dom0 control port) ------------------
    def control_input(self, packet: Packet):
        """Frame delivered to the Dom0 control port (generator, Dom0
        context): answer WhoIs queries from the roster, ignore the rest
        (our own flooded multicasts also land here)."""
        eth = packet.eth
        if eth is None or eth.ethertype != ETH_P_XENLOOP:
            return
        try:
            msg = parse_message(packet.payload)
        except ValueError:
            return
        if not isinstance(msg, WhoIs) or not self.running:
            return
        dom0 = self.machine.dom0
        yield dom0.exec(dom0.costs.xenloop_lookup)
        domid = self.roster.get(msg.mac)
        found = domid is not None
        reply = PeerInfo(dom0.domid, msg.mac, domid if found else 0, found)
        self.whois_answered += 1
        deliver, delay, dup = self._fault_tap(msg.sender_domid, "PeerInfo")
        if not deliver:
            return
        if delay > 0.0:
            yield dom0.sim.timeout(delay)
        payload = reply.to_bytes()
        for _ in range(1 + dup):
            self._inject(eth.src, payload)
