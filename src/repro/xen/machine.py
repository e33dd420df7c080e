"""Physical machines.

:class:`Machine` is bare hardware (cores + optional NIC slot) used by
the native baselines; :class:`XenMachine` adds the hypervisor, XenStore,
Dom0, the Dom0 software bridge, and guest-domain creation with full
split-driver network wiring.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from repro.calibration import CostModel
from repro.net.addr import IPv4Addr, MacAddr
from repro.net.bridge import Bridge, NicBridgePort
from repro.net.nic import EthernetSwitch, PhysNIC
from repro.net.node import Node
from repro.net.stack import NetworkStack
from repro.sim.engine import Simulator
from repro.sim.resources import CPUCores
from repro.xen.domain import Domain
from repro.xen.hypervisor import Hypervisor
from repro.xen.xenstore import XenStore

__all__ = ["Machine", "XenMachine"]

class Machine:
    """Bare hardware: CPU cores and a name."""

    def __init__(self, sim: Simulator, costs: CostModel, name: str, n_cores: int = 2):
        self.sim = sim
        self.costs = costs
        self.name = name
        self.cpus = CPUCores(sim, n_cores, costs.domain_switch_penalty)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name}>"


class XenMachine(Machine):
    """A machine running the Xen hypervisor with Dom0 and a software bridge."""

    def __init__(
        self,
        sim: Simulator,
        costs: CostModel,
        name: str,
        n_cores: int = 2,
        guest_macs: Optional[Iterator[int]] = None,
    ):
        super().__init__(sim, costs, name, n_cores)
        self.hypervisor = Hypervisor(sim, costs)
        self.xenstore = XenStore()
        self.dom0 = Domain(self, self.hypervisor.alloc_domid(), f"{name}.dom0", is_dom0=True)
        self.hypervisor.register_domain(self.dom0)
        self.bridge = Bridge(self.dom0, name=f"{name}.xenbr0")
        self.nic: Optional[PhysNIC] = None
        #: source of auto-assigned guest MAC suffixes.  Guest MACs must be
        #: unique across every machine on the segment (xend randomizes
        #: within the Xen OUI; a collision would confuse every bridge and
        #: ARP cache), so machines sharing a segment share one counter;
        #: a machine given none numbers its own guests.
        self.guest_macs = itertools.count(1) if guest_macs is None else guest_macs

    @property
    def domains(self) -> dict[int, Domain]:
        """domid -> Domain for every live domain (Dom0 included)."""
        return self.hypervisor.domains

    @property
    def guests(self) -> list[Domain]:
        """Live unprivileged domains, in creation order."""
        return [d for d in self.domains.values() if not d.is_dom0]

    # -- physical connectivity ------------------------------------------------
    def attach_network(self, switch: EthernetSwitch, mac: MacAddr) -> PhysNIC:
        """Give the machine a physical NIC, uplinked to the Dom0 bridge."""
        if self.nic is not None:
            raise RuntimeError(f"{self.name} already has a NIC")
        self.nic = PhysNIC(self.dom0, self.costs, f"{self.name}.eth0", mac)
        self.nic.connect(switch)
        self.bridge.add_port(NicBridgePort(self.nic))
        return self.nic

    # -- domain lifecycle ----------------------------------------------------
    def create_guest(
        self,
        name: str,
        ip: Optional[IPv4Addr] = None,
        mac: Optional[MacAddr] = None,
        prefix_len: int = 24,
    ) -> Domain:
        """Create a guest domain; when ``ip`` is given, wire up the full
        netfront/netback split-driver path onto the Dom0 bridge.

        Guests get one vCPU (set by :class:`Domain`), matching the
        paper's testbed (dual-core machine, 512 MB single-vCPU guests)."""
        domid = self.hypervisor.alloc_domid()
        guest = Domain(self, domid, name)
        self.hypervisor.register_domain(guest)
        self.cpus.set_vcpu_limit(guest.sched_key, guest.vcpus)
        self.xenstore.write(0, f"/local/domain/{domid}/name", name)
        if ip is not None:
            if mac is None:
                mac = MacAddr(0x00163E000000 + next(self.guest_macs))  # Xen OUI
            guest.mac = mac
            guest.ip = ip
            NetworkStack(guest, ip, prefix_len=prefix_len)
            # Deferred import: xennet builds on the xen substrate.
            from repro.xennet.setup import connect_vif

            connect_vif(guest)
        return guest

    def adopt_domain(self, guest: Domain) -> int:
        """Attach a migrated-in domain: new domid, fresh XenStore subtree,
        new split-driver wiring.  Returns the new domid."""
        guest.machine = self
        guest._bind_cpus(self.cpus)
        guest.domid = self.hypervisor.alloc_domid()
        self.hypervisor.register_domain(guest)
        self.cpus.set_vcpu_limit(guest.sched_key, guest.vcpus)
        self.xenstore.write(0, f"/local/domain/{guest.domid}/name", guest.name)
        if guest.stack is not None:
            from repro.xennet.setup import connect_vif

            connect_vif(guest)
        return guest.domid

    def remove_domain(self, guest: Domain) -> None:
        """Detach a domain (shutdown or migration-out)."""
        if guest.netfront is not None:
            guest.netfront.disconnect()
        self.xenstore.rm(0, f"/local/domain/{guest.domid}")
        self.hypervisor.unregister_domain(guest)
