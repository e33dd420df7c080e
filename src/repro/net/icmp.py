"""ICMP echo (ping).

Echo requests are answered in the "kernel" (softirq context), exactly
like Linux -- so flood-ping RTTs measure the full stack + channel path
with no application scheduling on the responder side.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import trace
from repro.net.ethernet import IPPROTO_ICMP
from repro.net.packet import IcmpHeader, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.addr import IPv4Addr
    from repro.net.stack import NetworkStack

__all__ = ["IcmpLayer"]


class IcmpLayer:
    """ICMP echo handling: in-'kernel' responder plus waiter registry."""
    def __init__(self, stack: "NetworkStack"):
        self.stack = stack
        stack.ipv4.register_protocol(IPPROTO_ICMP, self.input)
        #: (ident, seq) -> Event fired with arrival time when a reply lands.
        self._echo_waiters: dict[tuple[int, int], object] = {}
        self._next_ident = 1
        self.echoes_answered = 0

    def alloc_ident(self) -> int:
        """Allocate the next echo identifier (16-bit, wraps, skips 0)."""
        ident = self._next_ident
        self._next_ident = (self._next_ident + 1) & 0xFFFF or 1
        return ident

    def input(self, packet: Packet):
        """Process one received ICMP message (generator, softirq context)."""
        node = self.stack.node
        yield node.exec(
            node.costs.icmp_layer + node.costs.checksum_cost(len(packet.payload))
        )
        hdr = packet.l4
        if not isinstance(hdr, IcmpHeader):
            return
        trace.mark(packet, "icmp-deliver", node.sim.now)
        if hdr.icmp_type == IcmpHeader.ECHO_REQUEST:
            # Reply in kernel context with the same payload.
            self.echoes_answered += 1
            reply = IcmpHeader(IcmpHeader.ECHO_REPLY, 0, hdr.ident, hdr.seq)
            # the reply reuses the request's payload: one copy + checksum
            yield node.exec(node.costs.copy_cost(len(packet.payload)))
            yield from self.stack.ipv4.output(
                packet.ip.src, IPPROTO_ICMP, reply, packet.payload
            )
        elif hdr.icmp_type == IcmpHeader.ECHO_REPLY:
            waiter = self._echo_waiters.pop((hdr.ident, hdr.seq), None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(node.sim.now)

    def send_echo(self, dst: "IPv4Addr", ident: int, seq: int, size: int = 56):
        """Send one echo request (generator); returns the waiter event.

        The caller yields the returned event to wait for the reply (or
        races it against a timeout).
        """
        node = self.stack.node
        waiter = node.sim.event(name=f"echo:{ident}:{seq}")
        self._echo_waiters[(ident, seq)] = waiter
        hdr = IcmpHeader(IcmpHeader.ECHO_REQUEST, 0, ident, seq)
        yield node.exec(
            node.costs.icmp_layer
            + node.costs.copy_cost(size)
            + node.costs.checksum_cost(size)
        )
        yield from self.stack.ipv4.output(dst, IPPROTO_ICMP, hdr, bytes(size))
        return waiter
