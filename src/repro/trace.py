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
    "traced_ping_by_name",
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
    """Snapshot of the simulator's engine-level counters.

    Returns ``{"events": <calendar entries processed>, "sim_time": now}``
    plus, when the caller supplies the measured wall-clock seconds,
    ``wall_s`` and the derived ``events_per_sec`` -- the throughput
    number tracked by ``benchmarks/bench_engine_throughput.py`` (see
    :attr:`repro.sim.engine.Simulator.event_count` for what counts as an
    event).

    The ``serialization`` sub-dict holds the wire-format cache and
    bytes-copied counters from :data:`repro.net.packet.WIRE_STATS`.
    Those are process-global (reset with ``WIRE_STATS.reset()`` before a
    measured run), not per-simulator.

    When a :class:`repro.faults.FaultPlan` is installed on the
    simulator, a ``faults`` sub-dict carries its injected / recovered /
    degraded counters.

    When the run carried TCP traffic, a ``tcp`` sub-dict sums every
    stack's :meth:`repro.net.tcp.TcpLayer.congestion_totals` --
    connections opened, retransmissions (split into fast vs. RTO),
    duplicate ACKs and segments, RSTs, and listener backlog drops.

    The ``notify`` sub-dict holds the event-channel suppression counters
    from :data:`repro.xen.event_channel.NOTIFY_STATS` (process-global,
    like the serialization counters: reset before a measured run).  When
    the simulator has XenLoop channels, ``channels`` lists each one's
    per-channel notify / suppression / batched-pop counters in creation
    order.

    A run that used the open-loop serving workload adds a ``serving``
    sub-dict (offered / completed / errors / SLO counters summed over
    every :class:`repro.workloads.serving.ServingProbe`).
    """
    from repro.net.packet import WIRE_STATS
    from repro.xen.event_channel import NOTIFY_STATS

    stats = {"events": sim.event_count, "sim_time": sim.now}
    if wall_s is not None:
        stats["wall_s"] = wall_s
        stats["events_per_sec"] = sim.event_count / wall_s if wall_s > 0 else 0.0
    stats["serialization"] = WIRE_STATS.snapshot()
    stats["notify"] = NOTIFY_STATS.snapshot()
    channels = getattr(sim, "_xenloop_channels", None)
    if channels:
        stats["channels"] = [
            {
                "guest": ch.guest.name,
                "peer_domid": ch.peer_domid,
                "pkts_sent": ch.pkts_sent,
                "pkts_received": ch.pkts_received,
                "notifies": ch.notifies,
                "notifies_suppressed": ch.notifies_suppressed,
                "drain_batches": ch.drain_batches,
                "drain_entries": ch.drain_entries,
            }
            for ch in channels
        ]
    layers = getattr(sim, "_tcp_layers", None)
    if layers:
        tcp: dict = {}
        for layer in layers:
            for key, value in layer.congestion_totals().items():
                tcp[key] = tcp.get(key, 0) + value
        if tcp.get("conns"):
            stats["tcp"] = tcp
    plan = getattr(sim, "fault_plan", None)
    if plan is not None:
        stats["faults"] = plan.snapshot()
    probes = getattr(sim, "_serving_probes", None)
    if probes:
        serving: dict = {}
        for probe in probes:
            for key, value in probe.counters().items():
                serving[key] = serving.get(key, 0) + value
        stats["serving"] = serving
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


def traced_ping_by_name(name: str, size: int = 56, **kwargs) -> list[tuple[str, float]]:
    """Build a registered scenario by name, warm it up, and trace one
    ping through it.  ``kwargs`` go to :func:`repro.scenarios.build`."""
    from repro import scenarios

    scn = scenarios.build(name, **kwargs)
    scn.warmup()
    return traced_ping(scn, size=size)
