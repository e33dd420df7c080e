"""The per-node network stack.

Owns the devices, the netfilter registry, the ARP cache, and the IPv4 /
ICMP / UDP / TCP layers.  All receive-side protocol processing runs in a
single "softirq" process per node (NAPI-style), which is where
per-packet receive CPU is charged.

Two stack entry points matter to XenLoop:

* ``netfilter`` (POST_ROUTING) -- where the module's hook steals
  outgoing packets (Sect. 3.1);
* ``rx_network`` -- where the module re-injects packets popped from the
  FIFO "into the network layer (layer-3)" on the receive side
  (Sect. 3.3);

plus ``register_ethertype`` , the ``dev_add_pack`` analogue the module
uses to receive XenLoop-type control frames (discovery announcements
and channel bootstrap messages).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import trace
from repro.net.addr import IPv4Addr, MacAddr
from repro.net.arp import NeighborCache
from repro.net.devices import LoopbackDevice, NetDevice
from repro.net.ethernet import ETH_P_ARP, ETH_P_IP
from repro.net.icmp import IcmpLayer
from repro.net.ipv4 import Ipv4Layer
from repro.net.netfilter import NetfilterRegistry
from repro.net.node import Node
from repro.net.packet import EthHeader, Packet
from repro.net.tcp import TcpLayer
from repro.net.udp import UdpLayer
from repro.sim.resources import Store

__all__ = ["NetworkStack"]


class _InjectSource:
    """Pseudo-device for packets injected directly at layer 3 (XenLoop)."""

    def __init__(self, name: str):
        self.name = name
        self.mac = MacAddr(0)

    def rx_cost(self, packet) -> float:
        return 0.0


class NetworkStack:
    """Per-node protocol stack: devices, hooks, ARP, IP, ICMP, UDP, TCP."""
    def __init__(
        self,
        node: Node,
        ip: IPv4Addr,
        prefix_len: int = 24,
        gateway: Optional[IPv4Addr] = None,
    ):
        self.node = node
        node.stack = self
        self.ip = ip
        self.network = ip
        self.prefix_len = prefix_len
        self.gateway = gateway

        self.netfilter = NetfilterRegistry()
        self.devices: list[NetDevice] = []
        self.loopback = LoopbackDevice(node, node.costs)
        self.loopback.attach(self)
        self._primary: Optional[NetDevice] = None

        self.arp = NeighborCache(self)
        self.ipv4 = Ipv4Layer(self)
        self.icmp = IcmpLayer(self)
        self.udp = UdpLayer(self)
        self.tcp = TcpLayer(self)

        #: ethertype -> generator function(packet, dev), softirq context.
        self._ethertype_handlers: dict[int, Callable] = {}
        #: optional transport-layer interceptor (the experimental
        #: socket-bypass XenLoop variant).  When set, tcp_connect first
        #: offers the connection to it; None from the interceptor means
        #: "fall back to real TCP" -- transparent either way.
        self.transport_intercept = None

        self._backlog = Store(node.sim)
        self.rx_frames = 0
        self.rx_dropped = 0
        # Hot-path singletons: layer-3 injection (the XenLoop receive
        # path) reuses one pseudo-source, and the softirq trace stage is
        # formatted once, not per frame.
        self._inject_sources: dict[str, _InjectSource] = {}
        self._softirq_stage = f"softirq@{node.name}"
        node.spawn(self._softirq_loop(), name="softirq")

    def snapshot_state(self) -> dict:
        """The stack's soft state: ARP cache, reassembler, socket tables
        (UDP ports with queue depths, TCP connections/listeners), and
        the receive counters."""
        return {
            "ip": str(self.ip),
            "arp": self.arp.snapshot_state(),
            "reassembler": self.ipv4.reassembler.snapshot_state(),
            "udp_sockets": {
                str(port): {
                    "queued": len(sock.queue),
                    "queued_bytes": sock.queued_bytes,
                    "recv_waiters": len(sock._recv_waiters),
                    "drops": sock.drops,
                    "rx_msgs": sock.rx_msgs,
                    "rx_bytes": sock.rx_bytes,
                    "closed": sock.closed,
                }
                for port, sock in self.udp.ports.items()
            },
            "tcp_connections": sorted(
                f"{k[0]}:{k[1]}>{k[2]}:{k[3]}" if len(k) == 4 else repr(k)
                for k in self.tcp.connections
            ),
            "tcp_listeners": sorted(self.tcp.listeners),
            "rx_frames": self.rx_frames,
            "rx_dropped": self.rx_dropped,
        }

    # -- device management -------------------------------------------------
    def add_device(self, dev: NetDevice, primary: bool = True) -> None:
        """Attach a device; the first (or primary=True) becomes the route target."""
        dev.attach(self)
        self.devices.append(dev)
        if primary or self._primary is None:
            self._primary = dev

    def primary_device(self) -> Optional[NetDevice]:
        """The device non-loopback routes resolve to."""
        return self._primary

    # -- receive path --------------------------------------------------------
    def deliver(self, packet: Packet, dev) -> None:
        """Called by devices (any context): queue a frame for the softirq."""
        self._backlog.put((packet, dev))

    def rx_network(self, packet: Packet, source_name: str = "xenloop") -> None:
        """Inject a packet directly at the network layer (no eth header).

        The injected packet is typically lazily parsed (fresh off the
        FIFO): the softirq queues and charges it by size alone; the body
        first materializes at L4 dispatch.
        """
        source = self._inject_sources.get(source_name)
        if source is None:
            source = self._inject_sources[source_name] = _InjectSource(source_name)
        self._backlog.put((packet, source))

    #: max frames pulled off the backlog per charged burst (NAPI-style
    #: budget); bounds the timing shift from the aggregated rx charge.
    SOFTIRQ_BURST = 64

    def _softirq_loop(self):
        node = self.node
        backlog = self._backlog
        while True:
            first = yield backlog.get()
            # NAPI-style burst: drain whatever else is already queued and
            # charge ONE aggregated rx segment for the burst (total cost
            # identical to per-frame charging), then dispatch each frame.
            burst = [first]
            while len(burst) < self.SOFTIRQ_BURST:
                found, item = backlog.try_get()
                if not found:
                    break
                burst.append(item)
            self.rx_frames += len(burst)
            now = node.sim.now
            stage = self._softirq_stage
            cost = 0.0
            for packet, dev in burst:
                trace.mark(packet, stage, now)
                cost += dev.rx_cost(packet)
            if cost:
                yield node.exec(cost)
            for packet, dev in burst:
                if packet.eth is None:
                    # Layer-3 injection (XenLoop receive path, loopback-free).
                    yield from self.ipv4.input(packet, dev)
                    continue
                dst = packet.eth.dst
                if (
                    getattr(dev, "mac", None) is not None
                    and dev.mac.value != 0
                    and dst != dev.mac
                    and not dst.is_broadcast
                    and not dst.is_multicast
                ):
                    # Flooded frame for someone else (bridge/switch learning).
                    self.rx_dropped += 1
                    continue
                ethertype = packet.eth.ethertype
                if ethertype == ETH_P_IP:
                    yield from self.ipv4.input(packet, dev)
                elif ethertype == ETH_P_ARP:
                    yield node.exec(node.costs.arp_lookup)
                    self.arp.handle_frame(packet, dev)
                else:
                    handler = self._ethertype_handlers.get(ethertype)
                    if handler is None:
                        self.rx_dropped += 1
                    else:
                        yield from handler(packet, dev)

    # -- link-layer output -----------------------------------------------
    def link_output(self, dev: NetDevice, dst_mac: MacAddr, ethertype: int, payload: bytes):
        """Send a raw L2 frame (generator, caller's context)."""
        packet = Packet(
            payload=payload,
            eth=EthHeader(dst=dst_mac, src=dev.mac, ethertype=ethertype),
        )
        yield self.node.exec(dev.tx_cost(packet))
        yield dev.queue_xmit(packet)
        return True

    # -- protocol handler registry ------------------------------------------
    def register_ethertype(self, ethertype: int, handler: Callable) -> None:
        """dev_add_pack analogue: claim a non-IP ethertype."""
        if ethertype in self._ethertype_handlers:
            raise ValueError(f"ethertype {ethertype:#06x} already registered")
        self._ethertype_handlers[ethertype] = handler

    def unregister_ethertype(self, ethertype: int) -> None:
        """Release a claimed ethertype."""
        self._ethertype_handlers.pop(ethertype, None)

    # -- convenience socket API (used by workloads/examples) ----------------
    def udp_socket(self, port: int = 0, rcvbuf: int = 1 << 20):
        """Create a UDP socket (port 0 = ephemeral)."""
        return self.udp.socket(port, rcvbuf=rcvbuf)

    def tcp_listen(self, port: int, backlog: int = 16, **kwargs):
        """Create a TCP listener on ``port``."""
        return self.tcp.listen(port, backlog, **kwargs)

    def tcp_connect(self, remote: tuple[IPv4Addr, int], **kwargs):
        """Generator: returns an ESTABLISHED connection object.

        With a transport interceptor installed this may be a
        shared-memory bypass stream instead of a TcpConnection; both
        expose the same blocking API, so callers cannot tell.
        """
        if self.transport_intercept is not None:
            return self._intercepted_connect(remote, **kwargs)
        return self.tcp.connect(remote, **kwargs)

    def _intercepted_connect(self, remote: tuple[IPv4Addr, int], **kwargs):
        conn = yield from self.transport_intercept.intercept_connect(remote)
        if conn is not None:
            return conn
        conn = yield from self.tcp.connect(remote, **kwargs)
        return conn
