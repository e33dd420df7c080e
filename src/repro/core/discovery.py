"""Dom0 Domain Discovery module (paper Sect. 3.2).

Every ``discovery_period`` (5 s) the module scans XenStore -- which
only Dom0 can read across domains -- for guests advertising a
``xenloop`` entry, collates their [guest-ID, MAC] identity pairs, and
announces them to the willing guests through the software bridge.
Guests absent from XenStore simply stop appearing in announcements,
and peers prune them: soft-state discovery with no explicit
de-registration message.

Every scan unicasts the *full* roster to every willing guest: one
:class:`~repro.core.protocol.Announce`, serialized once, from
:data:`~repro.core.protocol.DOM0_MAC`.  A guest's
:class:`~repro.core.control.ControlPlane` makes its mapping table the
announced roster and retires the channels of peers that left or
changed guest-ID.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.protocol import DOM0_MAC, Announce
from repro.net.addr import MacAddr
from repro.net.ethernet import ETH_P_XENLOOP
from repro.net.packet import EthHeader, Packet
from repro.xen.xenstore import XenStoreError

if TYPE_CHECKING:  # pragma: no cover
    from repro.xen.machine import XenMachine

__all__ = ["DiscoveryModule", "DOM0_MAC"]


class DiscoveryModule:
    """Dom0-resident periodic XenStore scanner and announcer.

    Each scan replaces ``roster`` (the currently advertising guests)
    with the collated [guest-ID, MAC] list and announces it.
    """

    def __init__(self, machine: "XenMachine", period: float | None = None):
        self.machine = machine
        self.period = period if period is not None else machine.costs.discovery_period
        self.running = True
        self.scans = 0
        self.announcements_sent = 0
        #: MAC -> guest-ID of guests seen advertising in the last scan.
        self.roster: dict[MacAddr, int] = {}
        machine.dom0.spawn(self._scan_loop(), name="xl-discovery")

    def stop(self) -> None:
        """Stop scanning (no further announcements are sent)."""
        self.running = False

    def snapshot_state(self) -> dict:
        """Scanner progress and the current soft-state roster."""
        return {
            "running": self.running,
            "period": self.period,
            "scans": self.scans,
            "announcements_sent": self.announcements_sent,
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
            self.roster = {mac: domid for domid, mac in entries}
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

    def _inject(self, dst: MacAddr, payload: bytes) -> None:
        """Inject one Dom0-originated control frame into the bridge,
        which forwards it to ``dst`` (a guest's vif)."""
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
