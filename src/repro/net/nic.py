"""Physical NIC, wire, and store-and-forward Ethernet switch.

Models the testbed's 1 Gbps switched Ethernet: each link hop serializes
frames at line rate, the switch adds a small store-and-forward latency,
and the receiving NIC delays delivery by an interrupt-moderation
latency (the dominant term in the ~100 us inter-machine ping RTT of
Table 1).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import trace
from repro.calibration import CostModel
from repro.net.addr import MacAddr
from repro.net.devices import NetDevice
from repro.net.packet import Packet
from repro.sim.engine import Event, Simulator
from repro.sim.resources import Store

__all__ = ["EthernetSwitch", "PhysNIC"]

TXQ_CAPACITY = 1024


class PhysNIC(NetDevice):
    """A physical Ethernet adapter attached to a switch port."""

    def __init__(self, node, costs: CostModel, name: str, mac: MacAddr, mtu: int = 1500):
        super().__init__(name, mac, mtu=mtu, gso=False)
        self.node = node
        self.costs = costs
        self.switch: Optional["EthernetSwitch"] = None
        #: when set, every received frame is handed to this callable
        #: instead of the normal dst-MAC filter (bridge/promiscuous mode).
        self.promisc_handler: Optional[Callable[[Packet], None]] = None
        self._txq = Store(node.sim, capacity=TXQ_CAPACITY)
        node.spawn(self._tx_loop(), name=f"{name}-tx")

    def connect(self, switch: "EthernetSwitch") -> None:
        """Cable the NIC into a switch port."""
        self.switch = switch
        switch.attach(self)

    # -- NetDevice interface ------------------------------------------------
    def tx_cost(self, packet: Packet) -> float:
        """Driver transmit cost: descriptor work plus DMA time."""
        return self.costs.nic_tx + self.costs.dma_cost(packet.wire_len)

    def rx_cost(self, packet: Packet) -> float:
        """Driver receive cost: descriptor work plus DMA time."""
        return self.costs.nic_rx + self.costs.dma_cost(packet.wire_len)

    def queue_xmit(self, packet: Packet) -> Event:
        """Queue the frame on the transmit ring (bounded; backpressure)."""
        self.count_tx(packet)
        return self._txq.put(packet)

    # -- medium ---------------------------------------------------------------
    def _tx_loop(self):
        sim = self.node.sim
        while True:
            packet = yield self._txq.get()
            trace.mark(packet, "nic-wire-tx", sim.now)
            # Serialization onto the wire at line rate.
            yield sim.timeout(self.costs.wire_time(packet.wire_len))
            if self.switch is not None:
                self.switch.ingress(self, packet)
            else:
                self.dropped += 1

    def receive(self, packet: Packet) -> None:
        """Frame arrives from the wire; delivered after interrupt latency."""
        timer = self.node.sim.timeout(self.costs.nic_rx_latency)
        timer.callbacks.append(lambda _ev: self._deliver(packet))

    def _deliver(self, packet: Packet) -> None:
        trace.mark(packet, "nic-rx", self.node.sim.now)
        if self.promisc_handler is not None:
            self.rx_packets += 1
            self.rx_bytes += packet.wire_len
            self.promisc_handler(packet)
            return
        eth = packet.eth
        if eth is None:
            self.dropped += 1
            return
        if eth.dst == self.mac or eth.dst.is_broadcast or eth.dst.is_multicast:
            self.deliver_up(packet)
        else:
            self.dropped += 1


class _SwitchPort:
    def __init__(self, switch: "EthernetSwitch", nic: PhysNIC):
        self.switch = switch
        self.nic = nic
        self.egress = Store(switch.sim, capacity=TXQ_CAPACITY)
        switch.sim.process(self._egress_loop(), name=f"switch-port-{nic.name}")

    def _egress_loop(self):
        sim = self.switch.sim
        costs = self.switch.costs
        while True:
            packet = yield self.egress.get()
            # Store-and-forward: switch latency + output serialization.
            yield sim.timeout(costs.switch_latency + costs.wire_time(packet.wire_len))
            self.nic.receive(packet)


class EthernetSwitch:
    """Learning switch connecting PhysNICs."""

    def __init__(self, sim: Simulator, costs: CostModel, name: str = "switch"):
        self.sim = sim
        self.costs = costs
        self.name = name
        self._ports: dict[PhysNIC, _SwitchPort] = {}
        self._fdb: dict[MacAddr, _SwitchPort] = {}
        self.frames_forwarded = 0
        self.frames_flooded = 0

    def attach(self, nic: PhysNIC) -> None:
        """Create a switch port for ``nic``."""
        if nic in self._ports:
            raise ValueError(f"{nic.name} already attached")
        self._ports[nic] = _SwitchPort(self, nic)

    def forget(self, mac: MacAddr) -> None:
        """Drop a forwarding-table entry (e.g. after VM migration)."""
        self._fdb.pop(mac, None)

    def ingress(self, from_nic: PhysNIC, packet: Packet) -> None:
        """A frame arrives from a NIC: learn the source, forward or flood."""
        in_port = self._ports[from_nic]
        eth = packet.eth
        if eth is None:
            return
        self._fdb[eth.src] = in_port
        out = self._fdb.get(eth.dst)
        if out is not None and not eth.dst.is_broadcast and not eth.dst.is_multicast:
            if out is not in_port:
                self.frames_forwarded += 1
                out.egress.put(packet)
            return
        self.frames_flooded += 1
        for port in self._ports.values():
            if port is not in_port:
                port.egress.put(packet)

