"""NetPIPE-MPICH: request-response sweep over increasing message sizes
(paper Sect. 4.3, Figs. 6-7).

NetPIPE ping-pongs messages of size ``s`` between two ranks ``n(s)``
times and reports, per size, the one-way latency (half the round trip)
and the throughput ``s / latency``.  We run it over :mod:`repro.mpi`,
the MPICH-over-TCP stand-in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from repro.mpi import mpi_connect_pair

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology import Cluster

__all__ = ["NetpipePoint", "NetpipeResult", "DEFAULT_SIZES", "run"]

DEFAULT_SIZES = [1, 16, 64, 256, 1024, 4096, 8192, 16384, 32768, 65536]


@dataclass
class NetpipePoint:
    """One sweep point: size, one-way latency, throughput."""
    size: int
    latency_us: float  # one-way
    mbps: float


@dataclass
class NetpipeResult:
    """Full NetPIPE sweep (points in size order)."""
    points: list[NetpipePoint] = field(default_factory=list)

    def series(self) -> tuple[list[int], list[float], list[float]]:
        """The sweep as (sizes, Mbit/s list, latency-us list)."""
        sizes = [p.size for p in self.points]
        return sizes, [p.mbps for p in self.points], [p.latency_us for p in self.points]


def _reps_for(size: int) -> int:
    """NetPIPE-style repetition count: more reps for small messages."""
    if size <= 256:
        return 100
    if size <= 8192:
        return 40
    return 15


def run(
    scenario: "Cluster",
    sizes: Optional[Iterable[int]] = None,
    port: int = 9100,
) -> NetpipeResult:
    """Run the NetPIPE ping-pong sweep over the mini-MPI library."""
    sim = scenario.sim
    sizes = list(sizes) if sizes is not None else list(DEFAULT_SIZES)
    result = NetpipeResult()
    rank0_connect, rank1_accept = mpi_connect_pair(scenario, port=port)
    done = {}

    def rank1():
        comm = yield from rank1_accept()
        for size in sizes:
            reps = _reps_for(size)
            for _ in range(reps + 2):  # +2 warmup
                data = yield from comm.recv()
                yield from comm.send(data)
        yield from comm.close()

    def rank0():
        comm = yield from rank0_connect()
        for size in sizes:
            reps = _reps_for(size)
            msg = bytes(size)
            for _ in range(2):  # warmup
                yield from comm.send(msg)
                yield from comm.recv()
            t0 = sim.now
            for _ in range(reps):
                yield from comm.send(msg)
                yield from comm.recv()
            rtt = (sim.now - t0) / reps
            latency = rtt / 2
            result.points.append(
                NetpipePoint(size, latency * 1e6, size * 8 / latency / 1e6)
            )
        yield from comm.close()
        done["ok"] = True

    sim.process(rank1(), name="netpipe-rank1")
    proc = sim.process(rank0(), name="netpipe-rank0")
    sim.run_until_complete(proc, timeout=600)
    return result
