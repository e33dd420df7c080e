"""Flood ping (ICMP ECHO request/reply), as in Table 1/3 row 1.

``ping -f`` sends the next request as soon as the reply arrives, so the
average inter-transaction time is the RTT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.stats import LogHistogram

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology import Cluster

__all__ = ["PingResult", "flood_ping"]


@dataclass
class PingResult:
    """Flood-ping outcome: RTT stats and losses."""
    count: int
    rtt_us: float
    min_us: float
    max_us: float
    lost: int


def flood_ping(scenario: "Cluster", count: int = 200, size: int = 56, timeout: float = 1.0) -> PingResult:
    """Run a flood ping from endpoint A to endpoint B; returns RTT stats."""
    if count < 1:
        raise ValueError(f"count must be at least 1, not {count}")
    sim = scenario.sim
    stack = scenario.node_a.stack
    rtts = LogHistogram("ping")
    lost = 0

    def pinger():
        nonlocal lost
        ident = stack.icmp.alloc_ident()
        for seq in range(count):
            t0 = sim.now
            waiter = yield from stack.icmp.send_echo(scenario.ip_b, ident, seq, size)
            yield sim.any_of([waiter, sim.timeout(timeout)])
            if waiter.triggered:
                rtts.record(sim.now - t0)
            else:
                lost += 1

    proc = sim.process(pinger(), name="flood-ping")
    sim.run_until_complete(proc, timeout=count * timeout + 10)
    if rtts.count == 0:
        raise RuntimeError("all pings lost")
    return PingResult(
        count=count,
        rtt_us=rtts.mean * 1e6,
        min_us=rtts.min * 1e6,
        max_us=rtts.max * 1e6,
        lost=lost,
    )
