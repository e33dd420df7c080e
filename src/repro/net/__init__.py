"""Simulated network substrate.

A faithful-in-structure model of the Linux networking path the paper's
prototype lives in: sk_buff-like packets, a protocol stack with
netfilter hooks between layers, ARP neighbour cache, IPv4 with
fragmentation, UDP, a simplified windowed TCP, and devices (loopback,
physical NIC + switch, and -- in ``repro.xennet`` -- the Xen split
driver).
"""

from repro.net.addr import IPv4Addr, MacAddr
from repro.net.node import Node
from repro.net.packet import Packet

__all__ = [
    "IPv4Addr",
    "MacAddr",
    "Node",
    "Packet",
]
