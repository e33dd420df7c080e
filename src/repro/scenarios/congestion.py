"""Congestion scenarios: N-to-1 incast and elephant/mice fairness.

The paper's evaluation never stresses the path with competing flows or
loss -- XenLoop's FIFO never drops, and netperf runs one flow at a
time.  These scenarios open that space (ROADMAP's "TCP congestion
realism" item):

* :func:`xenloop_incast` -- ``n_senders`` guests blast into one sink
  guest concurrently on a single Xen machine.
* :func:`xenloop_fairness` -- long-lived elephant streams share the
  sink with short bursty mice.

Both take ``data_path="fifo"`` (XenLoop loaded everywhere; guest
traffic bypasses the bridge) or ``"netfront"`` (plain split-driver path
through the Dom0 bridge).  Every TCP connection slow-starts from IW10
(:data:`repro.net.tcp.INITIAL_WINDOW`); bridge loss is injected
separately with :func:`loss_plan` so the lossless cells stay
bit-identical to a run without the faults module.

:func:`run_incast_cell` / :func:`run_fairness_cell` are the shared
drivers behind the golden tests, ``benchmarks/bench_congestion.py``
and ``make congestion-smoke``: build, optionally arm loss, warm up,
run, and return a flat deterministic summary dict.
"""

from __future__ import annotations

from repro import topology
from repro.calibration import DEFAULT_COSTS, CostModel
from repro.faults import PKT_LOSS, FaultPlan, FaultRule
from repro.scenarios.registry import scenario

__all__ = [
    "loss_plan",
    "run_fairness_cell",
    "run_incast_cell",
    "xenloop_fairness",
    "xenloop_incast",
]

def _module_for(data_path: str):
    if data_path == "fifo":
        return "xenloop"
    if data_path == "netfront":
        return None
    raise ValueError(f"data_path must be 'fifo' or 'netfront', not {data_path!r}")


@scenario
def xenloop_incast(
    costs: CostModel = DEFAULT_COSTS,
    seed: int = 0,
    n_senders: int = 4,
    data_path: str = "fifo",
) -> topology.Cluster:
    """N-to-1 incast: N source guests and one sink guest on one Xen machine.

    ``n_senders`` sets N; the measured endpoints are ``src1`` and the
    sink."""
    module = _module_for(data_path)
    guests = [topology.GuestSpec("sink", module=module)]
    guests += [
        topology.GuestSpec(f"src{i + 1}", module=module) for i in range(n_senders)
    ]
    spec = topology.ClusterSpec(
        name="xenloop_incast",
        machines=(topology.MachineSpec(name="xenhost", guests=tuple(guests)),),
        endpoints=("src1", "sink"),
    )
    return spec.build(costs, seed=seed)


@scenario
def xenloop_fairness(
    costs: CostModel = DEFAULT_COSTS,
    seed: int = 0,
    n_elephants: int = 2,
    n_mice: int = 3,
    data_path: str = "fifo",
) -> topology.Cluster:
    """Elephant/mice fairness: long streams and short bursts share one sink.

    All guests sit on one Xen machine; ``n_elephants`` stream and
    ``n_mice`` send short bursts."""
    module = _module_for(data_path)
    guests = [topology.GuestSpec("sink", module=module)]
    guests += [topology.GuestSpec(f"e{i + 1}", module=module) for i in range(n_elephants)]
    guests += [topology.GuestSpec(f"m{i + 1}", module=module) for i in range(n_mice)]
    spec = topology.ClusterSpec(
        name="xenloop_fairness",
        machines=(topology.MachineSpec(name="xenhost", guests=tuple(guests)),),
        endpoints=("e1", "sink"),
    )
    return spec.build(costs, seed=seed)


def loss_plan(loss: float, seed: int = 0, machine: str = "xenhost") -> FaultPlan:
    """A fault plan dropping each TCP frame crossing ``machine``'s
    bridge with probability ``loss`` (the FIFO path never crosses the
    bridge, so XenLoop traffic is structurally exempt)."""
    rule = FaultRule(kind=PKT_LOSS, message="tcp", guest=machine, prob=loss, times=None)
    return FaultPlan([rule], seed=seed)


def _cell_summary(scn: topology.Cluster, result, extra: dict) -> dict:
    from repro import trace

    stats = trace.engine_stats(scn.sim)
    out = {
        **extra,
        "events": stats["events"],
        "aggregate_mbps": round(getattr(result, "aggregate_mbps", 0.0), 3),
        "fairness": round(result.fairness, 6),
        "retransmissions": result.retransmissions,
        "fast_retransmits": result.fast_retransmits,
        "rto_retransmits": result.rto_retransmits,
        "tcp": stats.get("tcp"),
    }
    plan = scn.sim.fault_plan
    if plan is not None:
        out["frames_dropped"] = plan.injected.get(PKT_LOSS, 0)
    return out


def run_incast_cell(
    data_path: str = "fifo",
    loss: float = 0.0,
    n_senders: int = 4,
    bytes_per_flow: int = 1 << 20,
    seed: int = 0,
    costs: CostModel = DEFAULT_COSTS,
) -> dict:
    """Build + run one incast cell; returns a flat deterministic dict."""
    from repro.workloads import congestion

    scn = xenloop_incast(
        costs=costs, seed=seed, n_senders=n_senders, data_path=data_path
    )
    if loss > 0.0:
        loss_plan(loss, seed=seed).bind(scn)
    scn.warmup()
    senders = [f"src{i + 1}" for i in range(n_senders)]
    result = congestion.tcp_incast(
        scn, server="sink", senders=senders, bytes_per_flow=bytes_per_flow
    )
    cell = {
        "scenario": "incast",
        "data_path": data_path,
        "loss": loss,
        "n_flows": n_senders,
        "duration": round(result.duration, 9),
    }
    return _cell_summary(scn, result, cell)


def run_fairness_cell(
    data_path: str = "fifo",
    loss: float = 0.0,
    n_elephants: int = 2,
    n_mice: int = 3,
    duration: float = 0.2,
    seed: int = 0,
    costs: CostModel = DEFAULT_COSTS,
) -> dict:
    """Build + run one fairness cell; returns a flat deterministic dict."""
    from repro.workloads import congestion

    scn = xenloop_fairness(
        costs=costs,
        seed=seed,
        n_elephants=n_elephants,
        n_mice=n_mice,
        data_path=data_path,
    )
    if loss > 0.0:
        loss_plan(loss, seed=seed).bind(scn)
    scn.warmup()
    result = congestion.tcp_fairness(
        scn,
        server="sink",
        elephants=[f"e{i + 1}" for i in range(n_elephants)],
        mice=[f"m{i + 1}" for i in range(n_mice)],
        duration=duration,
    )
    cell = {
        "scenario": "fairness",
        "data_path": data_path,
        "loss": loss,
        "n_flows": n_elephants + n_mice,
        "duration": round(result.duration, 9),
        "elephant_mbps": round(result.elephant_mbps, 3),
        "mice_mbps": round(result.mice_mbps, 3),
        "fairness_elephants": round(result.fairness_elephants, 6),
    }
    return _cell_summary(scn, result, cell)
