"""Per-packet path tracing.

Mark a packet with :func:`enable` and every instrumented hop appends a
``(stage, time)`` record to it as it moves through the system --
netfilter hook, FIFO push/pop, netfront/netback, softirq, transport
delivery.  Tracing is opt-in per packet: untraced packets pay one dict
lookup per hop.

The headline user is :func:`traced_ping`, which sends one ICMP echo
through a scenario and returns the request's hop-by-hop timeline -- the
cost breakdown behind every latency number in EXPERIMENTS.md::

    from repro import scenarios, trace
    scn = scenarios.xenloop(); scn.warmup()
    for stage, t_us in trace.traced_ping(scn):
        print(f"{t_us:8.1f} us  {stage}")
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.scenarios import Scenario

__all__ = [
    "adopt",
    "enable",
    "engine_stats",
    "hops",
    "mark",
    "traced_ping",
]

_KEY = "trace"


def _registry(sim) -> dict:
    reg = getattr(sim, "_trace_registry", None)
    if reg is None:
        reg = sim._trace_registry = {}
    return reg


def _key_of(packet: "Packet"):
    if packet.ip is None:
        return None
    return (packet.ip.src.value, packet.ip.ident)


def enable(packet: "Packet", sim=None) -> "Packet":
    """Arm a packet for tracing (records accumulate in packet.meta).

    With ``sim`` given, the trace also survives serialization through
    the XenLoop FIFO: the reconstructed packet re-attaches to the same
    record list via (src, ident) in the simulator's trace registry.
    """
    records: list = []
    packet.meta[_KEY] = records
    if sim is not None:
        key = _key_of(packet)
        if key is not None:
            _registry(sim)[key] = records
    return packet


def adopt(packet: "Packet", sim) -> None:
    """Re-attach a reconstructed packet (e.g. popped from the FIFO) to
    the trace its original carried.  No-op unless tracing is active."""
    reg = getattr(sim, "_trace_registry", None)
    if not reg:
        return
    key = _key_of(packet)
    if key in reg:
        packet.meta[_KEY] = reg[key]


def mark(packet: "Packet", stage: str, now: float) -> None:
    """Append one hop record iff the packet is being traced."""
    records = packet.meta.get(_KEY)
    if records is not None:
        records.append((stage, now))


def hops(packet: "Packet") -> list[tuple[str, float]]:
    """The recorded (stage, time) list of a traced packet."""
    return list(packet.meta.get(_KEY, ()))


def engine_stats(sim, wall_s: Optional[float] = None) -> dict:
    """Snapshot of the simulator's engine-level and subsystem counters.

    Returns ``{"events": <calendar entries processed>, "sim_time": now}``
    (see :attr:`repro.sim.engine.Simulator.event_count` for what counts
    as an event) plus, when the caller supplies the measured wall-clock
    seconds, ``wall_s`` and the derived ``events_per_sec``.

    Two groups are process-global, not per-simulator: ``serialization``
    (:data:`repro.net.packet.WIRE_STATS`, pack, parse and bytes-copied
    counters) and ``notify`` (:data:`repro.xen.event_channel.NOTIFY_STATS`,
    notifies sent vs. suppressed and drain batches).  Reset them before a
    measured run.

    Every other group comes from ``sim.metrics`` (see
    :mod:`repro.sim.metrics`) and is present once something registered
    into it: ``tcp`` (every stack's congestion totals), ``channels``
    (every XenLoop channel's data-path counters), ``faults`` (the
    installed fault plan) and ``serving`` (every open-loop serving probe).
    """
    from repro.net.packet import WIRE_STATS
    from repro.xen.event_channel import NOTIFY_STATS

    stats = {"events": sim.event_count, "sim_time": sim.now}
    if wall_s is not None:
        stats["wall_s"] = wall_s
        stats["events_per_sec"] = sim.event_count / wall_s if wall_s > 0 else 0.0
    stats["serialization"] = WIRE_STATS.snapshot()
    stats["notify"] = NOTIFY_STATS.snapshot()
    stats.update(sim.metrics.snapshot())
    return stats


def traced_ping(scenario: "Scenario", size: int = 56) -> list[tuple[str, float]]:
    """Send one traced echo request A->B; returns (stage, time_us)
    records with time relative to the send, ending at ICMP delivery."""
    sim = scenario.sim
    stack = scenario.node_a.stack
    captured: dict[str, object] = {}

    # Capture the request packet right as the IP layer emits it: a
    # PRE-hook on our own POST_ROUTING chain with top priority.
    from repro.net.netfilter import HookPoint, Verdict

    def tap(packet, dev):
        if captured.get("pkt") is None and packet.ip is not None:
            enable(packet, sim)
            mark(packet, "ip-output", sim.now)
            captured["pkt"] = packet
        return Verdict.ACCEPT
        yield  # pragma: no cover

    stack.netfilter.register(HookPoint.POST_ROUTING, tap, priority=-1000)
    try:
        def pinger():
            ident = stack.icmp.alloc_ident()
            waiter = yield from stack.icmp.send_echo(scenario.ip_b, ident, 0, size)
            yield sim.any_of([waiter, sim.timeout(2.0)])

        proc = sim.process(pinger(), name="traced-ping")
        sim.run_until_complete(proc, timeout=10)
    finally:
        stack.netfilter.unregister(HookPoint.POST_ROUTING, tap)

    packet = captured.get("pkt")
    if packet is None:
        raise RuntimeError("no packet captured -- did the ping leave the stack?")
    records = hops(packet)
    if not records:
        return []
    t0 = records[0][1]
    return [(stage, (t - t0) * 1e6) for stage, t in records]
