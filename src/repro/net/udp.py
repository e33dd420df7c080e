"""UDP transport and datagram sockets."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.net.addr import IPv4Addr
from repro.net.ethernet import IPPROTO_UDP
from repro.net.packet import Packet, UdpHeader
from repro.sim.resources import WaitQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.stack import NetworkStack

__all__ = ["UdpLayer", "UdpSocket"]

#: default receive buffer (bytes) -- datagrams beyond this are dropped,
#: which is how netperf UDP_STREAM can report send rate > receive rate.
DEFAULT_RCVBUF = 1 << 20

EPHEMERAL_BASE = 32768
#: maximum UDP payload in one datagram (IP total length is 16-bit).
MAX_DGRAM = 65507


class UdpSocket:
    """Datagram socket bound to a local port."""

    def __init__(self, layer: "UdpLayer", port: int, rcvbuf: int = DEFAULT_RCVBUF):
        self.layer = layer
        self.port = port
        self.rcvbuf = rcvbuf
        self.queue: deque[tuple[bytes, tuple[IPv4Addr, int]]] = deque()
        self.queued_bytes = 0
        self._recv_waiters = WaitQueue(layer.stack.node.sim)
        self.drops = 0
        self.rx_msgs = 0
        self.rx_bytes = 0
        self.closed = False

    def sendto(self, data: bytes, addr: tuple[IPv4Addr, int]):
        """Send one datagram (generator).  Returns True if handed to IP."""
        if self.closed:
            raise OSError("socket is closed")
        if len(data) > MAX_DGRAM:
            raise ValueError(f"datagram too large: {len(data)} > {MAX_DGRAM}")
        node = self.layer.stack.node
        costs = node.costs
        yield node.exec(
            costs.syscall
            + costs.socket_layer
            + costs.udp_layer
            + costs.checksum_cost(len(data))
            + costs.copy_cost(len(data))  # user -> kernel copy
        )
        dst_ip, dst_port = addr
        hdr = UdpHeader(self.port, dst_port, UdpHeader.HEADER_LEN + len(data))
        ok = yield from self.layer.stack.ipv4.output(dst_ip, IPPROTO_UDP, hdr, data)
        return ok

    def recvfrom(self):
        """Receive one datagram (generator).  Returns (data, (ip, port))."""
        if self.closed:
            raise OSError("socket is closed")
        node = self.layer.stack.node
        while not self.queue:
            yield self._recv_waiters.wait(f"udp-recv:{self.port}")
        data, addr = self.queue.popleft()
        self.queued_bytes -= len(data)
        # kernel -> user copy plus syscall overhead.
        yield node.exec(
            node.costs.syscall + node.costs.socket_layer + node.costs.copy_cost(len(data))
        )
        return data, addr

    def _enqueue(self, data: bytes, addr: tuple[IPv4Addr, int]) -> bool:
        if self.queued_bytes + len(data) > self.rcvbuf:
            self.drops += 1
            return False
        self.queue.append((data, addr))
        self.queued_bytes += len(data)
        self.rx_msgs += 1
        self.rx_bytes += len(data)
        self._recv_waiters.wake_one()
        return True

    def close(self) -> None:
        """Unbind the port; pending receivers never complete."""
        if not self.closed:
            self.closed = True
            self.layer.unbind(self.port)


class UdpLayer:
    """Per-stack UDP: port table, demux, ephemeral allocation."""
    def __init__(self, stack: "NetworkStack"):
        self.stack = stack
        stack.ipv4.register_protocol(IPPROTO_UDP, self.input)
        self.ports: dict[int, UdpSocket] = {}
        self._next_ephemeral = EPHEMERAL_BASE
        self.rx_datagrams = 0
        self.rx_no_socket = 0

    def socket(self, port: int = 0, rcvbuf: int = DEFAULT_RCVBUF) -> UdpSocket:
        """Create a socket; ``port=0`` picks an ephemeral port."""
        if port == 0:
            port = self._alloc_ephemeral()
        elif port in self.ports:
            raise OSError(f"UDP port {port} already bound on {self.stack.node.name}")
        sock = UdpSocket(self, port, rcvbuf=rcvbuf)
        self.ports[port] = sock
        return sock

    def unbind(self, port: int) -> None:
        """Release a bound port."""
        self.ports.pop(port, None)

    def _alloc_ephemeral(self) -> int:
        for _ in range(65536 - EPHEMERAL_BASE):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral >= 65536:
                self._next_ephemeral = EPHEMERAL_BASE
            if port not in self.ports:
                return port
        raise OSError("out of ephemeral UDP ports")

    def input(self, packet: Packet):
        """Softirq-side datagram delivery (generator)."""
        node = self.stack.node
        hdr = packet.l4
        yield node.exec(
            node.costs.udp_layer + node.costs.checksum_cost(len(packet.payload))
        )
        self.rx_datagrams += 1
        sock = self.ports.get(hdr.dport)
        if sock is None:
            self.rx_no_socket += 1
            return
        accepted = sock._enqueue(packet.payload, (packet.ip.src, hdr.sport))
        if accepted:
            yield node.exec(node.costs.process_wakeup)
