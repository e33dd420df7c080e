"""XenLoop: the paper's contribution.

A self-contained "kernel module" per guest
(:class:`~repro.core.module.XenLoopModule`) that

* hooks the stack beneath the network layer (netfilter POST_ROUTING),
* maintains a [guest-ID, MAC] mapping table fed by Dom0's soft-state
  discovery module (:class:`~repro.core.discovery.DiscoveryModule`),
* bootstraps a bidirectional shared-memory channel (two lockless FIFOs
  + one event channel) with each co-resident peer on first traffic,
* shepherds intercepted packets through the FIFO with two copies and
  coalesced notifications, falling back to netfront/netback for
  oversized packets or while a channel is not (yet) connected,
* tears channels down cleanly on module unload, shutdown, and
  migration, and re-advertises after migrating in.

The package is layered: :mod:`repro.core.control` is the control plane
(the table-driven lifecycle FSM, per-channel controllers, and the
per-guest :class:`~repro.core.control.ControlPlane`);
:mod:`repro.core.channel` and :mod:`repro.core.fifo` are the data
plane (the FIFO transport the FSM drives).
"""

from repro.core.channel import Channel, ChannelState
from repro.core.control import (
    ChannelController,
    ChannelEvent,
    ChannelFSM,
    ControlPlane,
    TRANSITIONS,
)
from repro.core.discovery import DiscoveryModule
from repro.core.fifo import Fifo, FifoLayoutError
from repro.core.module import XenLoopModule

__all__ = [
    "Channel",
    "ChannelController",
    "ChannelEvent",
    "ChannelFSM",
    "ChannelState",
    "ControlPlane",
    "DiscoveryModule",
    "Fifo",
    "FifoLayoutError",
    "TRANSITIONS",
    "XenLoopModule",
]
