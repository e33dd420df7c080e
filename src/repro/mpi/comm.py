"""Point-to-point message passing over simulated TCP (MPICH ch3:sock
analogue).

Wire format per message: 8-byte header (4-byte magic-ish tag + 4-byte
length, network order) followed by the payload.  Blocking semantics
match MPI_Send/MPI_Recv for the eager protocol: ``send`` returns once
the bytes are buffered by TCP; ``recv`` returns exactly one message.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.tcp import TcpConnection
    from repro.topology import Cluster

__all__ = ["MpiConnection", "mpi_connect_pair"]

_HDR = struct.Struct("!II")
_MAGIC = 0x4D504900  # "MPI\0"


class MpiError(Exception):
    """Malformed message framing on the MPI connection."""
    pass


class MpiConnection:
    """One rank's connection to a single peer."""

    def __init__(self, conn: "TcpConnection"):
        self.conn = conn
        self.msgs_sent = 0
        self.msgs_received = 0

    def send(self, data: bytes):
        """Blocking send of one message (generator)."""
        yield from self.conn.send(_HDR.pack(_MAGIC, len(data)) + data)
        self.msgs_sent += 1

    def recv(self):
        """Blocking receive of one message (generator).  Returns bytes."""
        header = yield from self.conn.recv_exactly(_HDR.size)
        magic, length = _HDR.unpack(header)
        if magic != _MAGIC:
            raise MpiError(f"bad message magic {magic:#x}")
        if length:
            data = yield from self.conn.recv_exactly(length)
        else:
            data = b""
        self.msgs_received += 1
        return data

    def close(self):
        """Close the underlying TCP connection (generator)."""
        yield from self.conn.close()


def mpi_connect_pair(scenario: "Cluster", port: int = 9099):
    """Establish rank0<->rank1 connections (generator helpers).

    Returns two generator functions suitable for driving from two
    processes; usage::

        store = {}
        sim.process(_accept_side(...))  # see workloads.netpipe for a
        sim.process(_connect_side(...)) # complete example

    Most callers use :func:`repro.workloads.netpipe.run` instead of
    calling this directly.
    """
    listener = scenario.node_b.stack.tcp_listen(port)

    def rank1():
        conn = yield from listener.accept()
        listener.close()
        return MpiConnection(conn)

    def rank0():
        conn = yield from scenario.node_a.stack.tcp_connect((scenario.ip_b, port))
        return MpiConnection(conn)

    return rank0, rank1
