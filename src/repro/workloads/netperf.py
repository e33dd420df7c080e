"""netperf-style workloads: TCP_RR, UDP_RR, TCP_STREAM, UDP_STREAM.

Faithful to netperf's measurement loops:

* ``*_RR``: one outstanding transaction at a time (send request, await
  response); reports transactions/second.
* ``TCP_STREAM``: blast a byte stream in ``msg_size`` writes; reports
  receiver-side Mbit/s.
* ``UDP_STREAM``: blast datagrams of ``msg_size``; reports receiver-side
  Mbit/s (datagrams can be dropped at the socket buffer, as in real
  netperf UDP tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.stats import LogHistogram

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology import Cluster

__all__ = [
    "RrResult",
    "StreamResult",
    "tcp_crr",
    "tcp_rr",
    "tcp_stream",
    "udp_rr",
    "udp_stream",
]

_WARMUP_TRANSACTIONS = 10


@dataclass
class RrResult:
    """Request-response outcome: rate and latency stats."""
    transactions: int
    trans_per_sec: float
    latency_us: float
    #: per-transaction latency percentiles (virq jitter gives a real
    #: distribution; netperf's -j option reports the same quantities),
    #: within ``LogHistogram.REL_ERROR`` of the exact sample.
    p50_us: float = 0.0
    p99_us: float = 0.0


def _check_duration(duration: float) -> None:
    if duration <= 0:
        raise ValueError(f"duration must be positive, not {duration}")


def _timed_transactions(sim, duration: float, transaction):
    """Run ``transaction()`` back to back, one outstanding at a time,
    until ``duration`` simulated seconds have passed (generator; returns
    the :class:`RrResult`)."""
    hist = LogHistogram()
    t0 = sim.now
    while sim.now - t0 < duration:
        t_start = sim.now
        yield from transaction()
        hist.record(sim.now - t_start)
    return RrResult(
        transactions=hist.count,
        trans_per_sec=hist.count / hist.total,
        latency_us=hist.total / hist.count * 1e6,
        p50_us=hist.percentile(50) * 1e6,
        p99_us=hist.percentile(99) * 1e6,
    )


@dataclass
class StreamResult:
    """Stream outcome: receiver-side bytes, Mbit/s, and drops."""
    bytes_received: int
    mbps: float
    messages_sent: int
    drops: int


def tcp_rr(
    scenario: "Cluster",
    duration: float = 0.2,
    req_size: int = 1,
    resp_size: int = 1,
    port: int = 5201,
) -> RrResult:
    """netperf TCP_RR: one outstanding transaction at a time."""
    _check_duration(duration)
    sim = scenario.sim
    done = {}

    def server():
        listener = scenario.node_b.stack.tcp_listen(port)
        conn = yield from listener.accept()
        listener.close()
        resp = bytes(resp_size)
        while True:
            try:
                yield from conn.recv_exactly(req_size)
            except OSError:
                break
            yield from conn.send(resp)
        yield from conn.close()

    def client():
        conn = yield from scenario.node_a.stack.tcp_connect((scenario.ip_b, port))
        req = bytes(req_size)

        def one_transaction():
            yield from conn.send(req)
            yield from conn.recv_exactly(resp_size)

        for _ in range(_WARMUP_TRANSACTIONS):
            yield from one_transaction()
        done["result"] = yield from _timed_transactions(sim, duration, one_transaction)
        yield from conn.close()

    sim.process(server(), name="netperf-rr-server")
    proc = sim.process(client(), name="netperf-rr-client")
    sim.run_until_complete(proc, timeout=duration * 20 + 30)
    return done["result"]


def udp_rr(
    scenario: "Cluster",
    duration: float = 0.2,
    req_size: int = 1,
    resp_size: int = 1,
    port: int = 5202,
) -> RrResult:
    """netperf UDP_RR: one outstanding datagram transaction at a time."""
    _check_duration(duration)
    sim = scenario.sim
    done = {}
    stop = {"flag": False}

    def server():
        sock = scenario.node_b.stack.udp_socket(port)
        resp = bytes(max(1, resp_size))
        while not stop["flag"]:
            _data, addr = yield from sock.recvfrom()
            yield from sock.sendto(resp, addr)

    def client():
        sock = scenario.node_a.stack.udp_socket()
        req = bytes(max(1, req_size))

        def one_transaction():
            yield from sock.sendto(req, (scenario.ip_b, port))
            yield from sock.recvfrom()

        for _ in range(_WARMUP_TRANSACTIONS):
            yield from one_transaction()
        done["result"] = yield from _timed_transactions(sim, duration, one_transaction)
        stop["flag"] = True
        # One final wake for the server loop's pending recv.
        yield from sock.sendto(req, (scenario.ip_b, port))

    sim.process(server(), name="netperf-udprr-server")
    proc = sim.process(client(), name="netperf-udprr-client")
    sim.run_until_complete(proc, timeout=duration * 20 + 30)
    return done["result"]


def tcp_crr(
    scenario: "Cluster",
    duration: float = 0.1,
    req_size: int = 64,
    resp_size: int = 1024,
    port: int = 5206,
) -> RrResult:
    """netperf TCP_CRR: connect + request + response + close per
    transaction -- measures connection-setup cost through the channel."""
    _check_duration(duration)
    sim = scenario.sim
    done = {}
    listener = scenario.node_b.stack.tcp_listen(port, backlog=64)
    stop = {"flag": False}

    def server():
        resp = bytes(resp_size)
        while not stop["flag"]:
            conn = yield from listener.accept()
            yield from conn.recv_exactly(req_size)
            yield from conn.send(resp)
            yield from conn.close()

    def client():
        req = bytes(req_size)

        def one_transaction():
            conn = yield from scenario.node_a.stack.tcp_connect((scenario.ip_b, port))
            yield from conn.send(req)
            yield from conn.recv_exactly(resp_size)
            yield from conn.close()

        for _ in range(_WARMUP_TRANSACTIONS):
            yield from one_transaction()
        done["result"] = yield from _timed_transactions(sim, duration, one_transaction)
        stop["flag"] = True

    sim.process(server(), name="netperf-crr-server")
    proc = sim.process(client(), name="netperf-crr-client")
    sim.run_until_complete(proc, timeout=duration * 50 + 60)
    listener.close()
    return done["result"]


def tcp_stream(
    scenario: "Cluster",
    duration: float = 0.05,
    msg_size: int = 16384,
    port: int = 5203,
) -> StreamResult:
    """netperf TCP_STREAM: blast a byte stream; receiver-side Mbit/s."""
    sim = scenario.sim
    done = {}

    def server():
        listener = scenario.node_b.stack.tcp_listen(port)
        conn = yield from listener.accept()
        listener.close()
        total = 0
        t_first = None
        while True:
            data = yield from conn.recv(1 << 17)
            if not data:
                break
            if t_first is None:
                t_first = sim.now
            total += len(data)
        elapsed = sim.now - t_first if t_first is not None else 0.0
        mbps = total * 8 / elapsed / 1e6 if elapsed > 0 else 0.0
        done["server"] = (total, mbps)
        yield from conn.close()

    def client():
        conn = yield from scenario.node_a.stack.tcp_connect((scenario.ip_b, port))
        msg = bytes(msg_size)
        t0 = sim.now
        n = 0
        while sim.now - t0 < duration:
            yield from conn.send(msg)
            n += 1
        yield from conn.close()
        yield conn.closed_event
        done["messages"] = n

    sim.process(server(), name="netperf-stream-server")
    proc = sim.process(client(), name="netperf-stream-client")
    sim.run_until_complete(proc, timeout=duration * 100 + 60)
    total, mbps = done["server"]
    return StreamResult(total, mbps, done["messages"], drops=0)


def udp_stream(
    scenario: "Cluster",
    duration: float = 0.05,
    msg_size: int = 8192,
    port: int = 5204,
    rcvbuf: int = 1 << 20,
) -> StreamResult:
    """netperf UDP_STREAM: blast datagrams; receiver-side Mbit/s + drops."""
    sim = scenario.sim
    done = {}
    state = {"total": 0, "t_first": None, "t_last": None, "stop": False}

    def server():
        sock = scenario.node_b.stack.udp_socket(port, rcvbuf=rcvbuf)
        done["sock"] = sock
        while not state["stop"]:
            data, _addr = yield from sock.recvfrom()
            if data == b"STOP":
                break
            if state["t_first"] is None:
                state["t_first"] = sim.now
            state["total"] += len(data)
            state["t_last"] = sim.now

    def client():
        sock = scenario.node_a.stack.udp_socket()
        msg = bytes(msg_size)
        t0 = sim.now
        n = 0
        while sim.now - t0 < duration:
            yield from sock.sendto(msg, (scenario.ip_b, port))
            n += 1
        state["stop"] = True
        yield from sock.sendto(b"STOP", (scenario.ip_b, port))
        done["messages"] = n

    sproc = sim.process(server(), name="netperf-udpstream-server")
    proc = sim.process(client(), name="netperf-udpstream-client")
    sim.run_until_complete(proc, timeout=duration * 100 + 60)
    # Let in-flight datagrams drain before reading the tallies.
    sim.run(until=sim.now + 0.05)
    total = state["total"]
    if state["t_first"] is not None and state["t_last"] is not None and state["t_last"] > state["t_first"]:
        mbps = total * 8 / (state["t_last"] - state["t_first"]) / 1e6
    else:
        mbps = 0.0
    drops = done["sock"].drops
    done["sock"].close()  # free the port for back-to-back runs
    return StreamResult(total, mbps, done["messages"], drops=drops)
