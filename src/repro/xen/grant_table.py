"""Grant tables.

Each domain owns a :class:`GrantTable`; entries authorize exactly one
remote domain to map (share) a page.  The semantics enforced here are
the ones XenLoop's channel-bootstrap and teardown protocols depend on
(grant, map, unmap, revoke -- paper Sect. 3.3):

* only the domain named in the entry may map it;
* an entry cannot be revoked while mapped (``gnttab_end_foreign_access``
  fails, as in Xen).

Page *transfer* belongs to the netback baseline's receive path and is
modelled as cost only (``grant_transfer_page`` and ``page_zero`` in
``Netback.to_guest``), not as table state.

CPU costs for grant operations are charged by the *callers* (netfront,
netback, the XenLoop module) using the :class:`~repro.calibration.CostModel`
constants, because which side pays which cost is exactly the accounting
the paper's "comparing options for data transfer" discussion
(Sect. 3.3) is about.
"""

from __future__ import annotations

import itertools

from repro.xen.page import Page

__all__ = ["GrantError", "GrantRef", "GrantTable"]

GrantRef = int


class GrantError(Exception):
    """Invalid grant-table operation."""


class _GrantEntry:
    __slots__ = ("gref", "page", "granted_to", "mapped_by")

    def __init__(self, gref: GrantRef, page: Page, granted_to: int):
        self.gref = gref
        self.page = page
        self.granted_to = granted_to
        self.mapped_by: set[int] = set()


class GrantTable:
    """Per-domain grant table."""

    def __init__(self, domid: int):
        self.domid = domid
        self._entries: dict[GrantRef, _GrantEntry] = {}
        self._next_ref = itertools.count(1)
        self.grants_issued = 0
        self.maps = 0
        #: fault-tap wiring, set by the hypervisor when the table belongs
        #: to a registered domain (None for standalone tables in tests).
        self.sim = None
        self.name_of = None

    def snapshot_state(self) -> dict:
        """Live grant entries (ref -> grantee/mapper summary) + counters."""
        return {
            "domid": self.domid,
            "entries": {
                str(gref): {
                    "granted_to": entry.granted_to,
                    "mapped_by": sorted(entry.mapped_by),
                }
                for gref, entry in self._entries.items()
            },
            "grants_issued": self.grants_issued,
            "maps": self.maps,
        }

    # -- granting side --------------------------------------------------
    def grant_foreign_access(self, remote_domid: int, page: Page) -> GrantRef:
        """Allow ``remote_domid`` to map ``page``.  No hypercall needed at
        the granting side (the table is mapped into its address space)."""
        if remote_domid == self.domid:
            raise GrantError("cannot grant a page to oneself")
        gref = next(self._next_ref)
        self._entries[gref] = _GrantEntry(gref, page, remote_domid)
        self.grants_issued += 1
        return gref

    def end_foreign_access(self, gref: GrantRef) -> None:
        """Revoke an access grant.  Fails while the peer has it mapped."""
        entry = self._entries.get(gref)
        if entry is None:
            raise GrantError(f"no grant entry {gref} in dom{self.domid}")
        if entry.mapped_by:
            raise GrantError(f"grant {gref} still mapped by {sorted(entry.mapped_by)}")
        del self._entries[gref]

    # -- mapping side (hypercalls; cost charged by caller) -----------------
    def map_grant(self, gref: GrantRef, mapper_domid: int) -> Page:
        """Map an access grant; only the named domain may (hypercall)."""
        if self.sim is not None:
            plan = self.sim.fault_plan
            if plan is not None and plan.has_map_rules:
                name = self.name_of(mapper_domid) if self.name_of else None
                if plan.map_fails(name):
                    raise GrantError(
                        f"injected map failure: gref {gref} in dom{self.domid} "
                        f"for dom{mapper_domid}"
                    )
        entry = self._entries.get(gref)
        if entry is None:
            raise GrantError(f"no grant entry {gref} in dom{self.domid}")
        if entry.granted_to != mapper_domid:
            raise GrantError(
                f"grant {gref} is for dom{entry.granted_to}, not dom{mapper_domid}"
            )
        entry.mapped_by.add(mapper_domid)
        self.maps += 1
        return entry.page

    def unmap_grant(self, gref: GrantRef, mapper_domid: int) -> None:
        """Release a mapping previously obtained with map_grant."""
        entry = self._entries.get(gref)
        if entry is None:
            raise GrantError(f"no grant entry {gref} in dom{self.domid}")
        if mapper_domid not in entry.mapped_by:
            raise GrantError(f"grant {gref} not mapped by dom{mapper_domid}")
        entry.mapped_by.discard(mapper_domid)

    # -- introspection -----------------------------------------------------
    @property
    def active_entries(self) -> int:
        """Number of live grant entries."""
        return len(self._entries)

    def revoke_all_for(self, remote_domid: int, force: bool = False) -> int:
        """Revoke every entry granted to ``remote_domid``; used on channel
        teardown.  With ``force`` the revocation succeeds even while
        mapped (domain destruction path)."""
        stale = [g for g, e in self._entries.items() if e.granted_to == remote_domid]
        for gref in stale:
            if self._entries[gref].mapped_by and not force:
                raise GrantError(f"grant {gref} still mapped; unmap before revoking")
            del self._entries[gref]
        return len(stale)
