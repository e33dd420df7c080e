"""Hypervisor: per-machine grant tables, event channels, domid space.

The pieces of Xen that XenLoop and the split drivers call into.  The
hypervisor also provides ``exec_in_domain``, the mechanism by which an
event-channel upcall runs handler code in the target domain's CPU
context (charging that domain, not the notifier).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.calibration import CostModel
from repro.sim.engine import Simulator
from repro.xen.event_channel import EventChannelSubsys
from repro.xen.grant_table import GrantTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.xen.domain import Domain

__all__ = ["Hypervisor"]


class Hypervisor:
    """Per-machine grant tables, event channels, and domid space."""
    def __init__(self, sim: Simulator, costs: CostModel):
        self.sim = sim
        self.costs = costs
        self.domains: dict[int, "Domain"] = {}
        self.grant_tables: dict[int, GrantTable] = {}
        self.evtchn = EventChannelSubsys(sim, costs, self.exec_in_domain)
        self.evtchn.domain_name = self._domain_name
        self._next_domid = 0

    def _domain_name(self, domid: int) -> "str | None":
        """Resolve a domid to its domain name (fault-rule matching)."""
        domain = self.domains.get(domid)
        return domain.name if domain is not None else None

    def alloc_domid(self) -> int:
        """Allocate the next domain id (never reused)."""
        domid = self._next_domid
        self._next_domid += 1
        return domid

    def register_domain(self, domain: "Domain") -> None:
        """Register a domain and create its grant table."""
        if domain.domid in self.domains:
            raise ValueError(f"domid {domain.domid} already registered")
        self.domains[domain.domid] = domain
        table = GrantTable(domain.domid)
        table.sim = self.sim
        table.name_of = self._domain_name
        self.grant_tables[domain.domid] = table

    def unregister_domain(self, domain: "Domain") -> None:
        """Drop a domain's grant table and close its event channels."""
        self.domains.pop(domain.domid, None)
        self.grant_tables.pop(domain.domid, None)
        self.evtchn.close_all_for(domain.domid)

    def exec_in_domain(self, domid: int, cost: float, fn: Callable[[], None]) -> None:
        """Charge ``cost`` to ``domid`` and then run ``fn`` in its context.

        Single-entry upcall: the CPU segment is submitted directly with a
        call continuation, so one virq costs exactly one calendar entry
        (the segment's completion) on top of its delivery -- the old
        per-upcall chain burned four (spawn resume, completion, done
        bounce, process-finish placeholder).
        """
        domain = self.domains.get(domid)
        if domain is None or not domain.alive:
            return  # domain died while the upcall was in flight
        domain.cpus.execute_call(domain.sched_key, cost, fn)
