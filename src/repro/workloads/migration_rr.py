"""netperf TCP_RR sampled while a guest live-migrates (Fig. 11).

Reproduces the paper's migration experiment: vm1 and vm2 start on
different machines exchanging 1-byte TCP request-response transactions;
vm2 migrates onto vm1's machine (the guests detect co-residency,
bootstrap a XenLoop channel, and the transaction rate jumps), then
migrates away again (the channel tears down and the rate returns to the
inter-machine level).  The output is a time series of transactions per
sampling bin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.sim.stats import TimeSeries
from repro.xen.migration import live_migrate

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology import Cluster

__all__ = ["MigrationRrResult", "run"]


@dataclass
class MigrationRrResult:
    """Fig. 11 outcome: rate time series plus migration marks."""
    series: TimeSeries
    migrate_in_at: float
    migrate_away_at: float

    def rates(self) -> list[tuple[float, float]]:
        """The (time, transactions/sec) samples as a list."""
        return list(self.series)


def run(
    scenario: "Cluster",
    co_resident_hold: float = 10.0,
    bin_width: float = 0.25,
    settle: float = 8.0,
    port: int = 5401,
) -> MigrationRrResult:
    """Drive Fig. 11 on a :func:`repro.scenarios.migration_pair` scenario."""
    sim = scenario.sim
    vm2 = scenario.node_b
    machine_a, machine_b = scenario.machines
    series = TimeSeries("tcp_rr_rate")
    state = {"count": 0, "stop": False}
    marks = {}

    def server():
        listener = scenario.node_b.stack.tcp_listen(port)
        conn = yield from listener.accept()
        listener.close()
        while not state["stop"]:
            try:
                yield from conn.recv_exactly(1)
            except OSError:
                return
            yield from conn.send(b"y")

    def client():
        conn = yield from scenario.node_a.stack.tcp_connect((scenario.ip_b, port))
        while not state["stop"]:
            yield from conn.send(b"x")
            yield from conn.recv_exactly(1)
            state["count"] += 1

    def sampler():
        while not state["stop"]:
            before = state["count"]
            yield sim.timeout(bin_width)
            series.record(sim.now, (state["count"] - before) / bin_width)

    def orchestrator():
        # Phase 1: separate machines.
        yield sim.timeout(settle)
        marks["in_start"] = sim.now
        yield from live_migrate(vm2, machine_a)
        # Phase 2: co-resident; give discovery + bootstrap time to engage.
        yield sim.timeout(co_resident_hold)
        marks["away_start"] = sim.now
        yield from live_migrate(vm2, machine_b)
        # Phase 3: separate again.
        yield sim.timeout(settle)
        state["stop"] = True

    sim.process(server(), name="mig-rr-server")
    sim.process(client(), name="mig-rr-client")
    sim.process(sampler(), name="mig-rr-sampler")
    orch = sim.process(orchestrator(), name="mig-orchestrator")
    sim.run_until_complete(orch, timeout=600)
    # Let the last transactions settle so the final bin is recorded.
    sim.run(until=sim.now + 2 * bin_width)
    return MigrationRrResult(
        series=series,
        migrate_in_at=marks["in_start"],
        migrate_away_at=marks["away_start"],
    )
