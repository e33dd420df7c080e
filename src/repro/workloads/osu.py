"""OSU MPI micro-benchmarks (paper Sect. 4.4, Figs. 8-10).

* ``osu_bw``: sender pushes a *window* of back-to-back messages, then
  waits for a small ack -- measuring sustainable one-way bandwidth.
* ``osu_bibw``: both ranks push windows simultaneously -- bidirectional
  bandwidth (this is where FIFO back-pressure shows at large sizes).
* ``osu_latency``: classic ping-pong, reporting one-way latency.

All run over :mod:`repro.mpi` like the MVAPICH/MPICH originals run over
their transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from repro.mpi import mpi_connect_pair

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology import Cluster

__all__ = [
    "OsuPoint",
    "OsuResult",
    "DEFAULT_SIZES",
    "osu_bw",
    "osu_bibw",
    "osu_latency",
]

DEFAULT_SIZES = [1, 64, 512, 2048, 8192, 16384, 32768, 65536]
_ACK = b"A" * 4


@dataclass
class OsuPoint:
    """One sweep point: message size and metric value."""
    size: int
    value: float  # Mbit/s for bandwidth tests, us for latency


@dataclass
class OsuResult:
    """Full OSU sweep with its metric name."""
    metric: str
    points: list[OsuPoint] = field(default_factory=list)

    def series(self) -> tuple[list[int], list[float]]:
        """The sweep as (sizes, values)."""
        return [p.size for p in self.points], [p.value for p in self.points]


def _iters_for(size: int) -> tuple[int, int]:
    """(window, iterations) roughly like the OSU defaults, scaled down."""
    if size <= 8192:
        return 32, 8
    return 16, 4


def osu_bw(
    scenario: "Cluster",
    sizes: Optional[Iterable[int]] = None,
    port: int = 9200,
) -> OsuResult:
    """OSU uni-directional bandwidth (windowed back-to-back sends)."""
    sim = scenario.sim
    sizes = list(sizes) if sizes is not None else list(DEFAULT_SIZES)
    result = OsuResult("mbps")
    rank0_connect, rank1_accept = mpi_connect_pair(scenario, port=port)

    def rank1():
        comm = yield from rank1_accept()
        for size in sizes:
            window, iters = _iters_for(size)
            for _ in range(iters):
                for _ in range(window):
                    yield from comm.recv()
                yield from comm.send(_ACK)
        yield from comm.close()

    def rank0():
        comm = yield from rank0_connect()
        for size in sizes:
            window, iters = _iters_for(size)
            msg = bytes(size)
            t0 = sim.now
            for _ in range(iters):
                for _ in range(window):
                    yield from comm.send(msg)
                yield from comm.recv()  # window ack
            elapsed = sim.now - t0
            total = size * window * iters
            result.points.append(OsuPoint(size, total * 8 / elapsed / 1e6))
        yield from comm.close()

    sim.process(rank1(), name="osu-bw-rank1")
    proc = sim.process(rank0(), name="osu-bw-rank0")
    sim.run_until_complete(proc, timeout=600)
    return result


def osu_bibw(
    scenario: "Cluster",
    sizes: Optional[Iterable[int]] = None,
    port: int = 9201,
) -> OsuResult:
    """OSU bi-directional bandwidth (both ranks stream simultaneously)."""
    sim = scenario.sim
    sizes = list(sizes) if sizes is not None else list(DEFAULT_SIZES)
    result = OsuResult("mbps")
    rank0_connect, rank1_accept = mpi_connect_pair(scenario, port=port)

    # Each rank runs a sender and a receiver process over the same
    # connection; both directions stream simultaneously.
    def make_side(get_comm, record):
        state = {}

        def main():
            comm = yield from get_comm()
            state["comm"] = comm
            for size in sizes:
                window, iters = _iters_for(size)
                msg = bytes(size)
                recv_done = sim.process(receiver(comm, size), name="osu-bibw-rx")
                t0 = sim.now
                for _ in range(iters):
                    for _ in range(window):
                        yield from comm.send(msg)
                    yield from comm.send(b"")  # zero-length window marker
                yield recv_done
                elapsed = sim.now - t0
                if record is not None:
                    total = 2 * size * window * iters  # both directions
                    record(size, total * 8 / elapsed / 1e6)
            yield from comm.close()

        def receiver(comm, size):
            window, iters = _iters_for(size)
            for _ in range(iters):
                got = 0
                while got < window:
                    data = yield from comm.recv()
                    if not data:
                        continue  # zero-length window marker from the peer
                    got += 1
            return None

        return main

    def record(size, mbps):
        result.points.append(OsuPoint(size, mbps))

    rank0 = make_side(rank0_connect, record)
    rank1 = make_side(rank1_accept, None)
    sim.process(rank1(), name="osu-bibw-rank1")
    proc = sim.process(rank0(), name="osu-bibw-rank0")
    sim.run_until_complete(proc, timeout=600)
    return result


def osu_latency(
    scenario: "Cluster",
    sizes: Optional[Iterable[int]] = None,
    port: int = 9202,
) -> OsuResult:
    """OSU latency: ping-pong, one-way microseconds per size."""
    sim = scenario.sim
    sizes = list(sizes) if sizes is not None else list(DEFAULT_SIZES)
    result = OsuResult("latency_us")
    rank0_connect, rank1_accept = mpi_connect_pair(scenario, port=port)

    def rank1():
        comm = yield from rank1_accept()
        for size in sizes:
            _window, iters = _iters_for(size)
            reps = iters * 8
            for _ in range(reps):
                data = yield from comm.recv()
                yield from comm.send(data)
        yield from comm.close()

    def rank0():
        comm = yield from rank0_connect()
        for size in sizes:
            _window, iters = _iters_for(size)
            reps = iters * 8
            msg = bytes(size)
            t0 = sim.now
            for _ in range(reps):
                yield from comm.send(msg)
                yield from comm.recv()
            rtt = (sim.now - t0) / reps
            result.points.append(OsuPoint(size, rtt / 2 * 1e6))
        yield from comm.close()

    sim.process(rank1(), name="osu-lat-rank1")
    proc = sim.process(rank0(), name="osu-lat-rank0")
    sim.run_until_complete(proc, timeout=600)
    return result
