"""Network device model.

A :class:`NetDevice` is the boundary between a node's stack and some
transport medium.  Devices implement:

* ``tx_cost(packet)`` -- CPU charged to the *sender* per packet (driver
  transmit work); charged by the IP output path before ``queue_xmit``.
* ``queue_xmit(packet)`` -- hand the frame to the medium; returns an
  event that fires when the device *accepted* the frame (backpressure:
  a full transmit ring/queue delays this).
* ``rx_cost(packet)`` -- CPU charged to the *receiver's* softirq per
  packet before protocol processing.

Concrete devices: :class:`LoopbackDevice` here, the physical NIC in
``repro.net.nic``, and the paravirtual ``vif`` in ``repro.xennet``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.net.addr import MacAddr
from repro.sim.engine import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.net.stack import NetworkStack

__all__ = ["LoopbackDevice", "NetDevice"]


class NetDevice:
    """Base network device."""

    def __init__(
        self,
        name: str,
        mac: MacAddr,
        mtu: int = 1500,
        gso: bool = False,
    ):
        self.name = name
        self.mac = mac
        self.mtu = mtu
        #: whether TCP segments larger than the MTU may be handed to the
        #: device whole (TSO/GSO).  Virtual and loopback devices support
        #: this; the physical NIC model does not.
        self.gso = gso
        self.stack: "NetworkStack | None" = None
        self.tx_packets = 0
        self.tx_bytes = 0
        self.rx_packets = 0
        self.rx_bytes = 0
        self.dropped = 0

    # -- to be provided by subclasses ------------------------------------
    def tx_cost(self, packet: "Packet") -> float:  # pragma: no cover - abstract
        """CPU charged to the sender per transmitted packet."""
        raise NotImplementedError

    def rx_cost(self, packet: "Packet") -> float:  # pragma: no cover - abstract
        """CPU charged to the receiver's softirq per received packet."""
        raise NotImplementedError

    def queue_xmit(self, packet: "Packet") -> Event:  # pragma: no cover - abstract
        """Hand a frame to the medium; the event fires on acceptance."""
        raise NotImplementedError

    # -- helpers ----------------------------------------------------------
    def attach(self, stack: "NetworkStack") -> None:
        """Bind the device to its owning stack."""
        self.stack = stack

    def count_tx(self, packet: "Packet") -> None:
        """Update transmit counters for one outgoing frame."""
        self.tx_packets += 1
        self.tx_bytes += packet.wire_len

    def deliver_up(self, packet: "Packet") -> None:
        """Hand a received frame to the owning stack's backlog."""
        if self.stack is None:
            raise RuntimeError(f"device {self.name} not attached to a stack")
        self.rx_packets += 1
        self.rx_bytes += packet.wire_len
        self.stack.deliver(packet, self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name} mac={self.mac}>"


class LoopbackDevice(NetDevice):
    """The local loopback interface (``lo``).

    Used by the paper's "native loopback" baseline: two processes on a
    non-virtualized host talking through the kernel's loopback path.
    Linux gives ``lo`` a 64 KB MTU and GSO, so large writes traverse
    the stack as single packets -- which is why native loopback
    bandwidth is the ceiling in Table 2.
    """

    def __init__(self, node, costs, name: str = "lo"):
        super().__init__(name, MacAddr(0), mtu=65535, gso=True)
        self.node = node
        self.costs = costs

    def tx_cost(self, packet: "Packet") -> float:
        """Loopback transmit cost (softirq reinjection)."""
        return self.costs.loopback_xmit

    def rx_cost(self, packet: "Packet") -> float:
        """Loopback receive cost (softirq reinjection)."""
        return self.costs.loopback_xmit

    def queue_xmit(self, packet: "Packet") -> Event:
        """Reinject the frame straight into the owning stack's backlog."""
        self.count_tx(packet)
        self.deliver_up(packet)
        done = self.node.sim.event(name="lo.xmit")
        done.succeed()
        return done
