"""Xen domains (Dom0 and guests).

A :class:`Domain` is a :class:`~repro.net.node.Node` (it owns processes
and charges CPU to its machine's cores under its own scheduling key)
plus Xen identity and lifecycle: a domid, XenStore access with
permission checks and per-operation cost, and the
pre-migrate/post-migrate/shutdown callback lists that the XenLoop
module registers with (Sect. 3.4: the module "receives a callback from
the Xen Hypervisor" before migration).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.net.addr import IPv4Addr, MacAddr
from repro.net.node import Node

if TYPE_CHECKING:  # pragma: no cover
    from repro.xen.machine import XenMachine

__all__ = ["Domain"]

RUNNING = "RUNNING"
SUSPENDED = "SUSPENDED"
DEAD = "DEAD"


class Domain(Node):
    """A Xen domain: a Node plus domid, XenStore access, lifecycle hooks."""
    def __init__(self, machine: "XenMachine", domid: int, name: str, is_dom0: bool = False):
        super().__init__(
            machine.sim,
            machine.cpus,
            machine.costs,
            name,
            sched_key=name,  # stable across migration; unique per scenario
        )
        self.machine = machine
        self.domid = domid
        self.is_dom0 = is_dom0
        #: Dom0 gets a vCPU per physical core (Xen default); guests get
        #: one.
        self.vcpus = len(machine.cpus.cores) if is_dom0 else 1
        self.state = RUNNING
        #: the guest vif's MAC (set when networking is wired up).
        self.mac: Optional[MacAddr] = None
        self.ip: Optional[IPv4Addr] = None
        #: guest-side split driver, set by repro.xennet wiring.
        self.netfront = None

        # Lifecycle callbacks.  Pre-migrate/shutdown callbacks are
        # *generator functions* (they may need simulated time to drain
        # channels); post-migrate callbacks likewise.
        self.pre_migrate_callbacks: list[Callable] = []
        self.post_migrate_callbacks: list[Callable] = []
        self.shutdown_callbacks: list[Callable] = []

    # -- XenStore access (charged, permission-checked) ---------------------
    @property
    def xs_prefix(self) -> str:
        """This domain's XenStore subtree root."""
        return f"/local/domain/{self.domid}"

    def xs_write(self, path: str, value: str):
        """Permission-checked XenStore write (generator; charges CPU)."""
        yield self.exec(self.costs.xenstore_op)
        self.machine.xenstore.write(self.domid, path, value)

    def xs_read(self, path: str):
        """Permission-checked XenStore read (generator; charges CPU)."""
        yield self.exec(self.costs.xenstore_op)
        return self.machine.xenstore.read(self.domid, path)

    def xs_rm(self, path: str):
        """Permission-checked XenStore subtree removal (generator)."""
        yield self.exec(self.costs.xenstore_op)
        self.machine.xenstore.rm(self.domid, path)

    # -- grant table convenience ------------------------------------------
    @property
    def grant_table(self):
        """This domain's grant table on its current machine."""
        return self.machine.hypervisor.grant_tables[self.domid]

    # -- lifecycle -----------------------------------------------------------
    def shutdown(self):
        """Cleanly shut the domain down (generator).

        Runs the registered shutdown callbacks (XenLoop uses these to
        tear channels down, Sect. 3.3 "channel teardown"), then removes
        the domain from the machine.
        """
        if self.state == DEAD:
            return
        for cb in list(self.shutdown_callbacks):
            yield from cb()
        self.state = DEAD
        self.alive = False
        self.machine.remove_domain(self)

    def crash(self) -> None:
        """Abrupt domain death (fault injection, `xl destroy`).

        Unlike :meth:`shutdown`, NO registered callbacks run -- the
        XenLoop module gets no chance to tear channels down, so peers
        must recover through the soft-state announcement diff and the
        hypervisor's force-revoke path.  Synchronous: the machine
        reclaims the domain immediately (grant table dropped, all event
        channel ports closed, vif unplugged, XenStore subtree removed).
        """
        if self.state == DEAD:
            return
        self.state = DEAD
        self.alive = False
        self.machine.remove_domain(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Domain {self.name} id={self.domid} {self.state}>"
