"""The Scenario object every topology builder returns.

A built evaluation topology plus its measurement endpoints and a
``warmup()`` that drives ARP resolution (and, for XenLoop topologies,
discovery + channel bootstrap) to completion so that measurements start
from the steady state the paper's numbers reflect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.calibration import CostModel
from repro.core.channel import ChannelState
from repro.core.discovery import DiscoveryModule
from repro.core.module import XenLoopModule
from repro.net.addr import IPv4Addr
from repro.net.nic import EthernetSwitch
from repro.net.node import Node
from repro.sim.engine import SimulationError, Simulator

__all__ = ["Scenario"]


@dataclass
class Scenario:
    """A built evaluation topology plus its measurement endpoints."""
    name: str
    sim: Simulator
    costs: CostModel
    #: the two communication endpoints (may be the same node for loopback).
    node_a: Node
    node_b: Node
    ip_a: IPv4Addr
    ip_b: IPv4Addr
    machines: list = field(default_factory=list)
    switch: Optional[EthernetSwitch] = None
    modules: dict = field(default_factory=dict)  # node name -> XenLoopModule
    discovery: Optional[DiscoveryModule] = None
    #: whether warmup() should wait for XenLoop channels to connect
    #: (False for topologies whose endpoints start on different machines).
    expect_channels: bool = True

    def warmup(self, max_wait: float = 30.0) -> None:
        """Run the simulation until the data path is in steady state."""
        self._ping_once()
        if not self.modules or not self.expect_channels:
            return
        deadline = self.sim.now + max_wait
        while self.sim.now < deadline:
            if self._channels_connected():
                return
            # Discovery announcements arrive every discovery_period; each
            # ping after an announcement triggers channel bootstrap.
            self.sim.run(until=self.sim.now + self.costs.discovery_period / 4)
            self._ping_once()
        raise SimulationError(f"{self.name}: XenLoop channels never connected")

    def _ping_once(self) -> None:
        stack = self.node_a.stack

        def _gen():
            ident = stack.icmp.alloc_ident()
            waiter = yield from stack.icmp.send_echo(self.ip_b, ident, 0)
            yield self.sim.any_of([waiter, self.sim.timeout(1.0)])

        proc = self.sim.process(_gen(), name="warmup-ping")
        self.sim.run_until_complete(proc, timeout=5.0)

    def _channels_connected(self) -> bool:
        # A cluster may carry many modules whose channels form lazily on
        # their own first traffic: warmup only waits for the *measured
        # endpoints* to connect.
        endpoint_modules = [
            m
            for m in (self.modules.get(self.node_a.name), self.modules.get(self.node_b.name))
            if m is not None
        ]
        return all(
            any(ch.state is ChannelState.CONNECTED for ch in m.channels.values())
            for m in endpoint_modules
        )

    def xenloop_module(self, node: Node) -> Optional[XenLoopModule]:
        """The XenLoop module loaded in ``node``, if any."""
        return self.modules.get(node.name)
