"""Dom0 software bridge.

The Xen network architecture the paper targets (Fig. 1): every guest
vif has a netback port on this bridge, and the machine's physical NIC
is also a port.  All guest-to-guest traffic on the netfront/netback
path crosses this bridge inside the driver domain -- the indirection
XenLoop exists to bypass.

Ports implement ``deliver(packet)`` as a *generator* executed in Dom0
context (the bridge charges Dom0 CPU for every forwarded frame).
"""

from __future__ import annotations

from typing import Optional

from repro.net.addr import MacAddr
from repro.net.packet import Packet

__all__ = ["Bridge", "BridgePort", "NicBridgePort"]


class BridgePort:
    """Abstract bridge port."""

    def __init__(self, name: str):
        self.name = name
        self.bridge: "Bridge | None" = None

    def deliver(self, packet: Packet):  # pragma: no cover - abstract
        """Generator: push the frame out of this port."""
        raise NotImplementedError
        yield  # makes this a generator in subclass-free use


class NicBridgePort(BridgePort):
    """Bridge port wrapping the machine's physical NIC (uplink)."""

    def __init__(self, nic):
        super().__init__(f"port-{nic.name}")
        self.nic = nic
        nic.promisc_handler = self._from_wire

    def deliver(self, packet: Packet):
        """Send the frame out of the machine via the physical NIC (generator)."""
        dom0 = self.bridge.dom0
        yield dom0.exec(self.nic.tx_cost(packet))
        yield self.nic.queue_xmit(packet)

    def _from_wire(self, packet: Packet) -> None:
        """Frame from the wire enters the bridge (interrupt context)."""
        self.bridge.input(self, packet)


class Bridge:
    """Learning bridge running in Dom0."""

    def __init__(self, dom0, name: str = "xenbr0"):
        self.dom0 = dom0
        self.name = name
        self.ports: list[BridgePort] = []
        self._fdb: dict[MacAddr, BridgePort] = {}
        self.frames_forwarded = 0
        self.frames_flooded = 0
        #: frames dropped by an injected PKT_LOSS fault rule.
        self.frames_dropped = 0
        # One forwarding process is spawned per frame; format its name once.
        self._fwd_pname = f"{dom0.name}:bridge-fwd"
        # PKT_LOSS rules match on the machine name (faults.FaultRule.guest).
        machine = getattr(dom0, "machine", None)
        self._machine_name = getattr(machine, "name", dom0.name)

    def add_port(self, port: BridgePort) -> None:
        """Attach a port (vif netback or NIC uplink) to the bridge."""
        port.bridge = self
        self.ports.append(port)

    def remove_port(self, port: BridgePort) -> None:
        """Detach a port and purge its learned MACs."""
        if port in self.ports:
            self.ports.remove(port)
        stale = [mac for mac, p in self._fdb.items() if p is port]
        for mac in stale:
            del self._fdb[mac]

    def forget(self, mac: MacAddr) -> None:
        """Purge one learned MAC (e.g. after a guest migrates away)."""
        self._fdb.pop(mac, None)

    def input(self, in_port: Optional[BridgePort], packet: Packet) -> None:
        """A frame enters the bridge; forwarding happens in a Dom0 process.

        ``in_port=None`` means the frame was injected by Dom0 itself
        (e.g. a discovery announcement).
        """
        self.dom0.sim.process(self.forward(in_port, packet), self._fwd_pname)

    def forward(self, in_port: Optional[BridgePort], packet: Packet):
        """Forward one frame (generator, Dom0 context)."""
        dom0 = self.dom0
        yield dom0.exec(dom0.costs.bridge_forward)
        eth = packet.eth
        if eth is None:
            return
        if in_port is not None:
            self._fdb[eth.src] = in_port
        # Injected bridge-path loss (faults.PKT_LOSS): the frame vanishes
        # after the forwarding cost is charged and the FDB has learned
        # the source, like a drop at the egress queue.  Zero-overhead
        # tap: one getattr when no plan is installed.
        plan = dom0.sim.fault_plan
        if (
            plan is not None
            and plan.has_loss_rules
            and plan.pkt_lost(self._machine_name, packet)
        ):
            self.frames_dropped += 1
            return
        out = self._fdb.get(eth.dst)
        if out is not None and not eth.dst.is_broadcast and not eth.dst.is_multicast:
            if out is not in_port:
                self.frames_forwarded += 1
                yield from out.deliver(packet)
            return
        self.frames_flooded += 1
        for port in list(self.ports):
            if port is in_port:
                continue
            yield from port.deliver(packet.clone())
