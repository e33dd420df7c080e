"""Interdomain event channels.

The 1-bit notification primitive under both the netfront/netback rings
and the XenLoop channel.  The property that shapes performance -- and
that the paper's FIFO drain loops exploit -- is **pending-bit
coalescing**: a notify while the target's pending bit is already set is
a no-op, so a burst of packets costs one virtual IRQ, and the receiver
must re-check the ring/FIFO after clearing the bit to avoid losing a
wakeup.  This module reproduces exactly those semantics:

* ``notify`` sets the peer port's pending bit; if it was already set,
  nothing else happens;
* after ``virq_delivery_latency`` the pending bit is *cleared* and the
  registered handler runs in the target domain's context (charged
  ``virq_entry`` on the target's CPU);
* a notify arriving after the clear but during handler execution
  triggers a fresh upcall -- the race the re-check loop closes.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.calibration import CostModel
from repro.sim.engine import Simulator
from repro.sim.metrics import Counters

__all__ = ["EventChannelError", "EventChannelSubsys", "NOTIFY_STATS", "Port"]


#: Process-global notification counters, updated at every notify and
#: suppress site.  Tracks how often the notify hypercall was actually
#: issued versus suppressed by the consumer-advertised waiting state --
#: separately for the XenLoop FIFO channel (``fifo_*``) and the
#: netfront/netback ring protocol (``ring_*``) -- plus the channel drain
#: worker's batched-pop counters.  Reset before a measured run; reported
#: under the ``notify`` key of :func:`repro.trace.engine_stats`.
NOTIFY_STATS = Counters(
    "fifo_notifies",
    "fifo_suppressed",
    "ring_notifies",
    "ring_suppressed",
    "drain_batches",
    "drain_entries",
)


class EventChannelError(Exception):
    """Invalid event-channel operation."""


class _Delivery:
    """Calendar entry for one in-flight virq delivery.

    Replaces the Timeout-plus-callback-lambda pair with a single slotted
    record: scheduling consumes one sequence number exactly like the
    Timeout it replaces, so event ordering (and thus determinism) is
    unchanged while the per-notify allocations drop from an Event, a
    callbacks list, and a closure to one small record.
    """

    __slots__ = ("subsys", "peer")

    def __init__(self, subsys: "EventChannelSubsys", peer: "Port"):
        self.subsys = subsys
        self.peer = peer

    def _process(self) -> None:
        self.subsys._deliver(self.peer)


class Port:
    """One endpoint of an (eventual) interdomain channel."""

    __slots__ = (
        "domid",
        "port",
        "remote_domid",
        "peer",
        "pending",
        "handler",
        "closed",
        "notifies_sent",
        "notifies_coalesced",
        "upcalls",
    )

    def __init__(self, domid: int, port: int, remote_domid: int):
        self.domid = domid
        self.port = port
        self.remote_domid = remote_domid
        self.peer: Optional["Port"] = None
        self.pending = False
        self.handler: Optional[Callable[[], None]] = None
        self.closed = False
        self.notifies_sent = 0
        self.notifies_coalesced = 0
        self.upcalls = 0

    def __repr__(self) -> str:  # pragma: no cover
        state = "closed" if self.closed else ("bound" if self.peer else "unbound")
        return f"<Port dom{self.domid}:{self.port} {state}>"


class EventChannelSubsys:
    """Hypervisor-side event-channel state for one machine.

    The ``exec_in_domain`` callable injects handler execution into a
    domain's CPU context: ``exec_in_domain(domid, cost, fn)`` charges
    ``cost`` to that domain and then calls ``fn()``.
    """

    def __init__(self, sim: Simulator, costs: CostModel, exec_in_domain: Callable):
        self.sim = sim
        self.costs = costs
        self._exec_in_domain = exec_in_domain
        self._ports: dict[tuple[int, int], Port] = {}
        self._next_port: dict[int, itertools.count] = {}
        #: domid -> name resolver for fault-rule matching (set by the
        #: hypervisor; None outside a full machine).
        self.domain_name: Optional[Callable[[int], Optional[str]]] = None
        #: 1-bit pending coalescing (real Xen semantics).  Turned off only
        #: by the coalescing ablation benchmark: every notify then incurs
        #: a full upcall.
        self.coalescing = True

    def snapshot_state(self) -> dict:
        """Every port's binding and pending bit, for the manifest."""
        return {
            "ports": {
                f"{domid}:{portnum}": {
                    "remote_domid": port.remote_domid,
                    "connected": port.peer is not None,
                    "pending": port.pending,
                    "closed": port.closed,
                    "notifies_sent": port.notifies_sent,
                    "upcalls": port.upcalls,
                }
                for (domid, portnum), port in self._ports.items()
            },
            "coalescing": self.coalescing,
        }

    def _alloc_port_number(self, domid: int) -> int:
        counter = self._next_port.setdefault(domid, itertools.count(1))
        return next(counter)

    def _require_live(self, domid: int) -> None:
        """Refuse hypercalls from a torn-down domain.

        A crashed guest's in-flight kernel work keeps running in the
        simulator (crash kills no processes), and ``close_all_for`` has
        already reclaimed the domain's ports -- a port allocated *after*
        that would leak forever.  Real Xen can't receive hypercalls from
        a destroyed domain at all; raising here is the moral equivalent.
        Skipped when no resolver is wired up (bare subsys in unit tests).
        """
        if self.domain_name is not None and self.domain_name(domid) is None:
            raise EventChannelError(f"dom{domid} is not a live domain")

    # -- lifecycle -----------------------------------------------------
    def alloc_unbound(self, domid: int, remote_domid: int) -> Port:
        """Allocate a port in ``domid`` that ``remote_domid`` may bind to."""
        self._require_live(domid)
        port = Port(domid, self._alloc_port_number(domid), remote_domid)
        self._ports[(domid, port.port)] = port
        return port

    def bind_interdomain(self, domid: int, remote_domid: int, remote_port: int) -> Port:
        """Bind a new local port to the peer's unbound port."""
        self._require_live(domid)
        peer = self._ports.get((remote_domid, remote_port))
        if peer is None or peer.closed:
            raise EventChannelError(f"no unbound port dom{remote_domid}:{remote_port}")
        if peer.remote_domid != domid:
            raise EventChannelError(
                f"port dom{remote_domid}:{remote_port} reserved for dom{peer.remote_domid}"
            )
        if peer.peer is not None:
            raise EventChannelError(f"port dom{remote_domid}:{remote_port} already bound")
        local = Port(domid, self._alloc_port_number(domid), remote_domid)
        self._ports[(domid, local.port)] = local
        local.peer = peer
        peer.peer = local
        return local

    def set_handler(self, port: Port, handler: Callable[[], None]) -> None:
        """Install the upcall handler run in the port owner's context."""
        port.handler = handler

    def close(self, port: Port) -> None:
        """Close a port; the peer survives but notifies become no-ops."""
        port.closed = True
        port.handler = None
        if port.peer is not None:
            port.peer.peer = None
            port.peer = None
        self._ports.pop((port.domid, port.port), None)

    def close_all_for(self, domid: int) -> int:
        """Close every port owned by ``domid`` (domain teardown)."""
        stale = [p for (d, _n), p in self._ports.items() if d == domid]
        for port in stale:
            self.close(port)
        return len(stale)

    # -- notification --------------------------------------------------
    def notify(self, port: Port) -> None:
        """Signal the peer of ``port``.

        The ``evtchn_send`` hypercall cost is charged by the caller (it
        happens in the caller's context); this method implements the
        delivery semantics.
        """
        if port.closed:
            raise EventChannelError(f"notify on closed {port!r}")
        peer = port.peer
        if peer is None or peer.closed:
            # Peer tore down (e.g. mid-migration): notification is lost,
            # exactly as on real Xen.
            return
        port.notifies_sent += 1
        plan = self.sim.fault_plan
        if plan is not None and plan.has_notify_rules:
            # Fault tap: the send hypercall happened (counted above), but
            # the wakeup never reaches the peer -- the drain loop's
            # pending-bit re-check is what must recover.
            name = self.domain_name(port.domid) if self.domain_name else None
            if plan.notify_lost(name):
                return
        if peer.pending and self.coalescing:
            port.notifies_coalesced += 1
            return
        peer.pending = True
        latency = self.costs.virq_delivery_latency
        jitter = self.costs.virq_jitter
        if jitter > 0:
            latency *= 1 + jitter * (float(self.sim.rng.random()) - 0.5)
        self.sim._schedule(_Delivery(self, peer), latency)

    def _deliver(self, peer: Port) -> None:
        if peer.closed:
            return
        # Clear-before-handle: notifies landing during the handler set the
        # bit again and schedule a fresh upcall.
        peer.pending = False
        handler = peer.handler
        if handler is None:
            return
        peer.upcalls += 1
        self._exec_in_domain(peer.domid, self.costs.virq_entry, handler)
