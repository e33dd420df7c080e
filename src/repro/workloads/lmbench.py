"""lmbench-style workloads: ``bw_tcp`` and ``lat_tcp``.

``bw_tcp`` moves a fixed number of bytes in 64 KB writes and reports
Mbit/s (lmbench reports MB/s; we convert to match the paper's tables).
``lat_tcp`` is a 1-byte TCP ping-pong reporting round-trip latency in
microseconds, as lmbench does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology import Cluster

__all__ = ["BwResult", "LatResult", "bw_tcp", "lat_tcp"]


@dataclass
class BwResult:
    """bw_tcp outcome: bytes moved and Mbit/s."""
    bytes_moved: int
    mbps: float


@dataclass
class LatResult:
    """lat_tcp outcome: round trips and mean RTT in microseconds."""
    round_trips: int
    latency_us: float


def bw_tcp(
    scenario: "Cluster",
    total_bytes: int = 4 << 20,
    chunk: int = 65536,
    port: int = 5301,
) -> BwResult:
    """Move ``total_bytes`` over TCP in 64 KB writes; returns Mbit/s."""
    sim = scenario.sim
    done = {}

    def server():
        listener = scenario.node_b.stack.tcp_listen(port)
        conn = yield from listener.accept()
        listener.close()
        got = 0
        t_first = None
        while got < total_bytes:
            data = yield from conn.recv(1 << 17)
            if not data:
                break
            if t_first is None:
                t_first = sim.now
            got += len(data)
        elapsed = sim.now - t_first if t_first else 0.0
        done["result"] = BwResult(got, got * 8 / elapsed / 1e6 if elapsed > 0 else 0.0)
        yield from conn.close()

    def client():
        conn = yield from scenario.node_a.stack.tcp_connect((scenario.ip_b, port))
        msg = bytes(chunk)
        sent = 0
        while sent < total_bytes:
            yield from conn.send(msg)
            sent += len(msg)
        yield from conn.close()

    sproc = sim.process(server(), name="lmbench-bw-server")
    sim.process(client(), name="lmbench-bw-client")
    sim.run_until_complete(sproc, timeout=120)
    return done["result"]


def lat_tcp(scenario: "Cluster", round_trips: int = 500, port: int = 5302) -> LatResult:
    """1-byte TCP ping-pong; returns mean RTT in microseconds."""
    sim = scenario.sim
    done = {}

    def server():
        listener = scenario.node_b.stack.tcp_listen(port)
        conn = yield from listener.accept()
        listener.close()
        while True:
            try:
                data = yield from conn.recv_exactly(1)
            except OSError:
                break
            yield from conn.send(data)
        yield from conn.close()

    def client():
        conn = yield from scenario.node_a.stack.tcp_connect((scenario.ip_b, port))
        msg = b"x"
        # lmbench warms the path before timing.
        for _ in range(10):
            yield from conn.send(msg)
            yield from conn.recv_exactly(1)
        t0 = sim.now
        for _ in range(round_trips):
            yield from conn.send(msg)
            yield from conn.recv_exactly(1)
        elapsed = sim.now - t0
        yield from conn.close()
        done["result"] = LatResult(round_trips, elapsed / round_trips * 1e6)

    sim.process(server(), name="lmbench-lat-server")
    proc = sim.process(client(), name="lmbench-lat-client")
    sim.run_until_complete(proc, timeout=120)
    return done["result"]
