"""Open-loop request/response serving -- production-shaped load.

Every other workload here is closed-loop (netperf-style: the next
request waits for the previous response), which hides queueing: a slow
server just slows the generator down.  Production traffic is open-loop
-- requests arrive on their own clock whether or not the server keeps
up -- so latency includes queueing delay and the tail explodes near
saturation.  This module supplies that generator:

* a single seeded **arrival process** (Poisson or Pareto/heavy-tailed
  inter-arrivals) paced by engine timeouts,
* a pool of persistent TCP connections per client guest (many flows
  multiplexed over one XenLoop channel per guest pair), each draining
  its own FIFO share of the arrivals,
* per-request latency (completion minus *arrival*, so queueing counts)
  streamed into a :class:`repro.sim.stats.LogHistogram` -- no
  per-sample list anywhere on the hot path,
* one SLO count: a completed request whose latency exceeds ``slo``
  counts as one ``slo_violations``.  It is decided at completion, so no
  timer is armed per request.

Workers survive connection loss (guest crash/restart churn): the failed
request counts as an error (never as an SLO violation), and the worker
reconnects with a short backoff.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.sim.resources import WaitQueue
from repro.sim.stats import LogHistogram

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology import Cluster

__all__ = ["ServingProbe", "ServingResult", "open_loop_rr"]

#: reconnect backoff after a dropped connection (seconds).
_RECONNECT_BACKOFF = 0.01
_RECONNECT_TRIES = 20


@dataclass
class ServingProbe:
    """Streaming accumulators for one serving run (its :meth:`counters`
    feed the simulator's ``serving`` metrics group)."""

    hist: LogHistogram = field(default_factory=LogHistogram)
    #: arrivals generated (offered load).
    offered: int = 0
    #: requests completed (response fully received).
    completed: int = 0
    #: requests lost to connection failure (churn).
    errors: int = 0
    #: completed requests whose latency exceeded the run's ``slo``.
    slo_violations: int = 0
    #: reconnects performed by workers after a dropped connection.
    reconnects: int = 0

    def counters(self) -> dict:
        """Flat numeric summary (sums cleanly across probes)."""
        return {
            "offered": self.offered,
            "completed": self.completed,
            "errors": self.errors,
            "slo_violations": self.slo_violations,
            "reconnects": self.reconnects,
        }


@dataclass
class ServingResult:
    """Outcome of one open-loop run.  Percentiles come from the
    streaming histogram; ``p50_idx``/``p99_idx`` are the platform-exact
    bucket indices goldens pin."""

    arrival: str
    rate: float
    offered: int
    completed: int
    errors: int
    duration: float
    throughput_rps: float
    p50_us: float
    p99_us: float
    p999_us: float
    p50_idx: int
    p99_idx: int
    slo: float
    slo_violations: int
    reconnects: int
    probe: ServingProbe


def echo_server(cluster: "Cluster", server: str, req_size: int, resp_size: int, port: int):
    """Accept connections forever on ``server``; each echoes a
    ``resp_size``-byte response per ``req_size``-byte request."""
    node = cluster.guests[server]
    payload = bytes(resp_size)

    def serve(conn, i):
        try:
            while True:
                yield from conn.recv_exactly(req_size)
                yield from conn.send(payload)
        except OSError:
            pass  # client went away (end of run, or churn)

    def acceptor():
        listener = node.stack.tcp_listen(port, backlog=64)
        i = 0
        try:
            while True:
                conn = yield from listener.accept()
                node.sim.process(serve(conn, i), name=f"serve-{i}")
                i += 1
        except OSError:
            pass  # listener torn down with the guest

    return cluster.sim.process(acceptor(), name=f"serving-{server}")


def open_loop_rr(
    cluster: "Cluster",
    server: str,
    clients: Sequence[str],
    requests: int = 10_000,
    rate: float = 20_000.0,
    arrival: str = "poisson",
    pareto_alpha: float = 1.5,
    conns_per_client: int = 4,
    req_size: int = 128,
    resp_size: int = 512,
    slo: float = 0.002,
    port: int = 5401,
    timeout: float = 600.0,
) -> ServingResult:
    """Drive ``requests`` open-loop request/response transactions from
    ``clients`` into ``server`` and return tail-latency statistics.

    ``rate`` is the offered load in requests/second across the whole
    cluster; ``arrival`` is ``"poisson"`` (exponential inter-arrivals)
    or ``"pareto"`` (heavy-tailed, shape ``pareto_alpha`` > 1, same
    mean).  Arrivals are assigned round-robin to
    ``len(clients) * conns_per_client`` persistent connections; each
    connection serves its share FIFO, so queueing delay lands in the
    measured latency exactly as an open-loop client would see it.
    """
    if arrival not in ("poisson", "pareto"):
        raise ValueError(f"arrival must be 'poisson' or 'pareto', not {arrival!r}")
    if rate <= 0:
        raise ValueError(f"rate must be positive: {rate}")
    if pareto_alpha <= 1:
        raise ValueError(f"pareto_alpha must exceed 1 for a finite mean gap: {pareto_alpha}")
    if not 0.0 < slo < math.inf:
        raise ValueError(f"slo must be positive and finite: {slo}")
    sim = cluster.sim
    rng = sim.rng
    probe = ServingProbe()
    sim.metrics.register("serving", probe.counters)
    echo_server(cluster, server, req_size, resp_size, port)
    server_ip = cluster.guests[server].stack.ip
    req_payload = bytes(req_size)
    done = sim.event("serving-done")

    mean_gap = 1.0 / rate
    # Same-mean Pareto: gap = xm * (1 + pareto(alpha)), E = xm*a/(a-1).
    pareto_xm = mean_gap * (pareto_alpha - 1.0) / pareto_alpha

    n_workers = len(clients) * conns_per_client
    queues: list[deque] = [deque() for _ in range(n_workers)]
    idle = [WaitQueue(sim) for _ in range(n_workers)]
    state = {"settled": 0, "generating": True}

    def _settle(n: int = 1) -> None:
        state["settled"] += n
        if (
            not state["generating"]
            and state["settled"] >= probe.offered
            and not done.triggered
        ):
            done.succeed()
            # Wake idle workers so they observe the exit condition.
            for queue in idle:
                queue.wake_one()

    def generator():
        for i in range(requests):
            gap = (
                rng.exponential(mean_gap)
                if arrival == "poisson"
                else pareto_xm * (1.0 + rng.pareto(pareto_alpha))
            )
            if gap > 0.0:
                yield sim.timeout(gap)
            wid = i % n_workers
            queues[wid].append(sim.now)
            probe.offered += 1
            idle[wid].wake_one()
        state["generating"] = False
        _settle(0)  # all arrivals may already be settled

    def worker(client: str, wid: int):
        node = cluster.guests[client]
        queue = queues[wid]
        conn = None
        while True:
            if not queue:
                if not state["generating"] and state["settled"] >= probe.offered:
                    break
                yield idle[wid].wait()
                continue
            t_arr = queue.popleft()
            try:
                if conn is None:
                    attempt = 0
                    while True:
                        try:
                            conn = yield from node.stack.tcp_connect((server_ip, port))
                            break
                        except OSError:
                            attempt += 1
                            if attempt >= _RECONNECT_TRIES:
                                raise
                            yield sim.timeout(_RECONNECT_BACKOFF)
                    if attempt:
                        probe.reconnects += 1
                yield from conn.send(req_payload)
                yield from conn.recv_exactly(resp_size)
            except OSError:
                # Connection died mid-request (crash/migration churn):
                # the request is lost and counted as an error.
                conn = None
                probe.errors += 1
                probe.reconnects += 1
                _settle()
                continue
            latency = sim.now - t_arr
            probe.hist.record(latency)
            if latency > slo:
                probe.slo_violations += 1
            probe.completed += 1
            _settle()
        if conn is not None:
            yield from conn.close()

    t0 = sim.now
    sim.process(generator(), name="serving-arrivals")
    procs = []
    for wid in range(n_workers):
        client = clients[wid % len(clients)]
        procs.append(sim.process(worker(client, wid), name=f"serving-{client}-{wid}"))

    def waiter_proc():
        yield done
        # Let workers run their close handshakes.
        for proc in procs:
            if proc.is_alive:
                yield proc

    sim.run_until_complete(sim.process(waiter_proc(), name="serving-wait"), timeout=timeout)
    duration = sim.now - t0

    hist = probe.hist
    if hist.count:
        p50_us = hist.percentile(50) * 1e6
        p99_us = hist.percentile(99) * 1e6
        p999_us = hist.percentile(99.9) * 1e6
        p50_idx = hist.percentile_index(50)
        p99_idx = hist.percentile_index(99)
    else:  # pragma: no cover - every request lost
        p50_us = p99_us = p999_us = 0.0
        p50_idx = p99_idx = 0
    return ServingResult(
        arrival=arrival,
        rate=rate,
        offered=probe.offered,
        completed=probe.completed,
        errors=probe.errors,
        duration=duration,
        throughput_rps=probe.completed / duration if duration > 0 else 0.0,
        p50_us=p50_us,
        p99_us=p99_us,
        p999_us=p999_us,
        p50_idx=p50_idx,
        p99_idx=p99_idx,
        slo=slo,
        slo_violations=probe.slo_violations,
        reconnects=probe.reconnects,
        probe=probe,
    )
