"""Simulated Xen hypervisor substrate.

Implements the primitives XenLoop is built from, with the semantics the
paper relies on: machine pages and contiguous shared regions, grant
tables (foreign access, map/unmap, revoke), interdomain event
channels with 1-bit pending coalescing, the XenStore hierarchical
key-value store with per-domain permissions, domain lifecycle
(create/shutdown), and live migration between machines.
"""

from repro.xen.domain import Domain
from repro.xen.event_channel import EventChannelError, EventChannelSubsys
from repro.xen.grant_table import GrantError, GrantTable
from repro.xen.machine import Machine, XenMachine
from repro.xen.page import PAGE_SIZE, Page, SharedRegion
from repro.xen.xenstore import XenStore, XenStoreError

__all__ = [
    "Domain",
    "EventChannelError",
    "EventChannelSubsys",
    "GrantError",
    "GrantTable",
    "Machine",
    "PAGE_SIZE",
    "Page",
    "SharedRegion",
    "XenMachine",
    "XenStore",
    "XenStoreError",
]
