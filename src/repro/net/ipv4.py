"""IPv4 layer: routing, output path with POST_ROUTING hook, input path
with reassembly and protocol dispatch.

Ordering matters and mirrors Linux: on output the netfilter
POST_ROUTING chain runs **before** fragmentation (``ip_output`` ->
``NF_HOOK`` -> ``ip_finish_output`` -> ``ip_fragment``), which is why
the XenLoop hook sees whole UDP datagrams up to 64 KB rather than MTU
fragments -- a key reason its large-message bandwidth beats the
netfront path (paper Fig. 4).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.addr import IPv4Addr, netmask
from repro.net.ethernet import ETH_P_IP
from repro.net.netfilter import HookPoint, Verdict
from repro.net.packet import EthHeader, IPv4Header, Packet, TcpHeader

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.devices import NetDevice
    from repro.net.packet import L4Header
    from repro.net.stack import NetworkStack

__all__ = ["Ipv4Layer", "Reassembler", "RoutingError"]

#: reassembly buffers older than this are purged (Linux default 30 s).
FRAG_TIMEOUT = 30.0


class RoutingError(Exception):
    """No route to host."""


class _FragBuffer:
    __slots__ = ("chunks", "total", "created")

    def __init__(self, created: float):
        self.chunks: dict[int, bytes] = {}
        self.total: Optional[int] = None
        self.created = created


class Reassembler:
    """IP fragment reassembly, keyed by (src, dst, ident, proto)."""

    def __init__(self, sim):
        self.sim = sim
        self._buffers: dict[tuple, _FragBuffer] = {}
        self.completed = 0
        self.timed_out = 0

    def snapshot_state(self) -> dict:
        """Per-flow fragment buffers (chunk counts and byte coverage)."""
        return {
            "buffers": {
                f"{key[0]}>{key[1]}#{key[2]}p{key[3]}": {
                    "chunks": len(buf.chunks),
                    "bytes": sum(len(c) for c in buf.chunks.values()),
                    "total": buf.total,
                    "created": buf.created,
                }
                for key, buf in self._buffers.items()
            },
            "completed": self.completed,
            "timed_out": self.timed_out,
        }

    def add(self, packet: Packet) -> Optional[Packet]:
        """Absorb a fragment; return the reassembled packet when complete."""
        # Age out stale buffers on EVERY fragment arrival.  Purging only
        # when a datagram completed leaked buffers forever on flows whose
        # datagrams never complete (a sender that died mid-burst).
        self._purge()
        ip = packet.ip
        key = (ip.src, ip.dst, ip.ident, ip.proto)
        buf = self._buffers.get(key)
        if buf is None:
            buf = self._buffers[key] = _FragBuffer(self.sim.now)
        buf.chunks[ip.frag_offset] = packet.payload
        if not ip.more_frags:
            buf.total = ip.frag_offset + len(packet.payload)
        if buf.total is None:
            return None
        # Check contiguous coverage of [0, total).
        covered = 0
        while covered < buf.total:
            chunk = buf.chunks.get(covered)
            if chunk is None:
                return None
            covered += len(chunk)
        if covered != buf.total:
            return None
        del self._buffers[key]
        self.completed += 1
        body = b"".join(buf.chunks[off] for off in sorted(buf.chunks))
        hdr = replace(ip, frag_offset=0, more_frags=False,
                      total_length=IPv4Header.HEADER_LEN + len(body))
        return Packet.from_l3_bytes(hdr.to_bytes() + body)

    def _purge(self) -> None:
        cutoff = self.sim.now - FRAG_TIMEOUT
        stale = [k for k, b in self._buffers.items() if b.created < cutoff]
        for k in stale:
            del self._buffers[k]
            self.timed_out += 1

    @property
    def pending(self) -> int:
        """Number of incomplete reassembly buffers."""
        return len(self._buffers)


class Ipv4Layer:
    """Per-stack IPv4 input/output."""

    def __init__(self, stack: "NetworkStack"):
        self.stack = stack
        # The stack's subnet, as a mask and masked network computed once:
        # on_subnet() runs for every packet sent.
        self._netmask = netmask(stack.prefix_len)
        self._subnet = stack.network.value & self._netmask
        self._next_ident = 1
        self.reassembler = Reassembler(stack.node.sim)
        #: proto number -> generator function(packet) run in softirq context.
        self.protocols: dict[int, Callable] = {}
        self.tx_packets = 0
        self.rx_packets = 0
        self.dropped = 0

    def register_protocol(self, proto: int, handler: Callable) -> None:
        """Register an L4 input handler for an IP protocol number."""
        self.protocols[proto] = handler

    # -- routing ----------------------------------------------------------
    def on_subnet(self, dst: IPv4Addr) -> bool:
        """Whether ``dst`` is on this stack's directly attached subnet."""
        return dst.value & self._netmask == self._subnet

    def route(self, dst: IPv4Addr) -> tuple["NetDevice", Optional[IPv4Addr]]:
        """Return (device, next_hop_ip); next_hop None means local delivery."""
        stack = self.stack
        if dst.value == stack.ip.value:
            return stack.loopback, None
        dev = stack.primary_device()
        if dev is None:
            raise RoutingError(f"{stack.node.name}: no device for {dst}")
        if self.on_subnet(dst):
            return dev, dst
        if stack.gateway is not None:
            return dev, stack.gateway
        raise RoutingError(f"{stack.node.name}: no route to {dst}")

    # -- output path --------------------------------------------------------
    def output(self, dst: IPv4Addr, proto: int, l4: "L4Header", payload: bytes):
        """Send one L3 packet (generator).  Returns True when handed off.

        Runs in the caller's (sender's) process context; all transmit-side
        CPU is charged here.
        """
        node = self.stack.node
        costs = node.costs
        yield node.exec(costs.ip_layer)
        dev, next_hop = self.route(dst)
        ident = self._next_ident
        self._next_ident = (self._next_ident + 1) & 0xFFFF or 1
        hdr = IPv4Header(self.stack.ip, dst, proto, ident)
        packet = Packet(payload=payload, l4=l4, ip=hdr)
        packet.ip.total_length = packet.l3_len

        netfilter = self.stack.netfilter
        if netfilter.active(HookPoint.POST_ROUTING):
            verdict = yield from netfilter.run(HookPoint.POST_ROUTING, packet, dev)
        else:
            verdict = Verdict.ACCEPT
        if verdict is Verdict.STOLEN:
            self.tx_packets += 1
            return True
        if verdict is Verdict.DROP:
            self.dropped += 1
            return False

        if next_hop is None:
            # Local delivery via loopback.
            packet.eth = EthHeader(dst=dev.mac, src=dev.mac, ethertype=ETH_P_IP)
            yield node.exec(dev.tx_cost(packet))
            yield dev.queue_xmit(packet)
            self.tx_packets += 1
            return True

        dst_mac = self.stack.arp.lookup(next_hop)
        if dst_mac is None:
            dst_mac = yield from self.stack.arp.resolve(next_hop)
            if dst_mac is None:
                self.dropped += 1
                return False
        else:
            yield node.exec(costs.arp_lookup)

        gso_ok = dev.gso and isinstance(packet.l4, TcpHeader)
        if packet.l3_len - IPv4Header.HEADER_LEN <= dev.mtu or gso_ok:
            packet.eth = EthHeader(dst=dst_mac, src=dev.mac, ethertype=ETH_P_IP)
            yield node.exec(dev.tx_cost(packet))
            yield dev.queue_xmit(packet)
            self.tx_packets += 1
            return True

        # Fragment: MTU bytes of L3 payload per fragment, 8-byte aligned.
        body = packet.l3_payload_bytes()
        step = (dev.mtu - IPv4Header.HEADER_LEN) & ~7
        offset = 0
        while offset < len(body):
            chunk = body[offset : offset + step]
            more = offset + len(chunk) < len(body)
            fhdr = replace(hdr, frag_offset=offset, more_frags=more)
            frag = Packet(payload=chunk, ip=fhdr)
            frag.ip.total_length = frag.l3_len
            frag.eth = EthHeader(dst=dst_mac, src=dev.mac, ethertype=ETH_P_IP)
            yield node.exec(costs.ip_fragment + dev.tx_cost(frag))
            yield dev.queue_xmit(frag)
            self.tx_packets += 1
            offset += len(chunk)
        return True

    # -- input path ---------------------------------------------------------
    def input(self, packet: Packet, dev) -> "object":
        """Process one received L3 packet (generator, softirq context)."""
        node = self.stack.node
        costs = node.costs
        yield node.exec(costs.ip_layer)
        self.rx_packets += 1
        if packet.ip is None:
            # Frame claimed ETH_P_IP but carries no parseable IP header.
            self.dropped += 1
            return

        netfilter = self.stack.netfilter
        if netfilter.active(HookPoint.PRE_ROUTING):
            verdict = yield from netfilter.run(HookPoint.PRE_ROUTING, packet, dev)
            if verdict is not Verdict.ACCEPT:
                if verdict is Verdict.DROP:
                    self.dropped += 1
                return

        if packet.ip.dst.value != self.stack.ip.value:
            # Hosts are not routers in this model.
            self.dropped += 1
            return

        if packet.is_fragment:
            yield node.exec(costs.ip_fragment)
            packet = self.reassembler.add(packet)
            if packet is None:
                return

        handler = self.protocols.get(packet.ip.proto)
        if handler is None:
            self.dropped += 1
            return
        yield from handler(packet)
