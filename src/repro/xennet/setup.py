"""Wiring a guest vif to Dom0: rings, event channel, netback, bridge port.

``connect_vif`` is called by :meth:`repro.xen.machine.XenMachine.create_guest`
at domain creation and again by :meth:`adopt_domain` after a live
migration (the migrated guest gets a brand-new ring/netback on the
destination machine, as on real Xen).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.resources import Store
from repro.xennet.netback import Netback
from repro.xennet.netfront import Netfront
from repro.xennet.ring import SlottedRing

if TYPE_CHECKING:  # pragma: no cover
    from repro.xen.domain import Domain

__all__ = ["connect_vif"]


def connect_vif(guest: "Domain") -> Netfront:
    """Wire (or re-wire) a guest's vif: rings, event channel, netback."""
    machine = guest.machine
    if guest.stack is None:
        raise ValueError(f"{guest.name} has no network stack")
    costs = guest.costs

    if guest.netfront is None:
        netfront = Netfront(guest, vif_name="eth0")
        guest.netfront = netfront
        guest.stack.add_device(netfront.vif, primary=True)
    else:
        netfront = guest.netfront  # reconnect after migration

    tx_ring = SlottedRing(machine.sim, costs.ring_size)
    rx_store = Store(machine.sim, capacity=costs.ring_size)

    evtchn = machine.hypervisor.evtchn
    guest_port = evtchn.alloc_unbound(guest.domid, machine.dom0.domid)
    dom0_port = evtchn.bind_interdomain(machine.dom0.domid, guest.domid, guest_port.port)

    netback = Netback(machine.dom0, netfront, tx_ring, rx_store, dom0_port)
    machine.bridge.add_port(netback.port)

    netfront.tx_ring = tx_ring
    netfront.rx_store = rx_store
    netfront.evtchn_port = guest_port
    netfront.netback = netback

    evtchn.set_handler(guest_port, netfront.on_interrupt)
    evtchn.set_handler(dom0_port, netback.on_interrupt)

    # Record the connection in XenStore, as xend does.
    machine.xenstore.write(0, f"/local/domain/{guest.domid}/device/vif/0/mac", str(guest.mac))
    return netfront
