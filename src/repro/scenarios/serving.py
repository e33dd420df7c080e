"""Open-loop serving scenario: tail latency under churn.

The paper's evaluation is closed-loop (netperf request/response), so it
reports *service* latency with no queueing.  ``xenloop_serving`` runs
the open-loop generator from :mod:`repro.workloads.serving` against a
server guest and reports the latency distribution an outside client
would see -- including the p99/p999 tail inflation when a migration
tears the FIFO channel down and traffic falls back to the netfront
path mid-run.

* ``data_path="fifo"`` loads XenLoop everywhere (requests ride the
  shared-memory FIFO); ``"netfront"`` forces the split-driver bridge
  path throughout -- the same A/B axis the congestion scenarios use.
* ``churn=True`` adds a second Xen machine, and :func:`run_serving_cell`
  binds a fault plan of time-anchored rules that live-migrates one
  client guest out and back (FIFO teardown + re-establishment while
  requests are in flight) and crash/restarts a bystander guest
  (discovery noise, no traffic of its own).

:func:`run_serving_cell` is the shared driver behind the golden tests,
``benchmarks/bench_serving.py`` and ``make serving-smoke``.
"""

from __future__ import annotations

from repro import topology
from repro.calibration import DEFAULT_COSTS, CostModel
from repro.faults import CRASH, MIGRATE, PKT_LOSS, FaultPlan, FaultRule
from repro.scenarios.congestion import _module_for, loss_plan
from repro.scenarios.registry import scenario

__all__ = ["run_serving_cell", "serving_churn_schedule", "xenloop_serving"]

#: migration model armed for churn runs: the default pre-copy (3 s) is
#: longer than a golden-scale serving run, so stop-and-copy would never
#: land inside the measured window.  A short pre-copy + 10 ms downtime
#: keeps the FIFO-teardown / netfront-fallback / re-establishment cycle
#: inside the run while staying well above the request SLO.
_CHURN_MIGRATION_DURATION = 0.030
_CHURN_MIGRATION_DOWNTIME = 0.010


def _churn_costs(costs: CostModel) -> CostModel:
    """Arm the short migration model unless the caller pinned one."""
    if costs.migration_duration != DEFAULT_COSTS.migration_duration:
        return costs
    return costs.replace(
        migration_duration=_CHURN_MIGRATION_DURATION,
        migration_downtime=_CHURN_MIGRATION_DOWNTIME,
    )


def serving_churn_schedule(client: str = "c1") -> tuple[FaultRule, ...]:
    """The churn rules for a serving run, time-anchored to
    :meth:`~repro.faults.FaultPlan.bind`: migrate ``client`` to the
    second machine at 10 ms -- its FIFO channels tear down and traffic
    falls back to netfront until discovery re-establishes them --
    crash the bystander at 20 ms and restart it 15 ms later, and
    migrate ``client`` back at 45 ms, after the first migration (30 ms
    with the churn cost model) has landed.
    """
    return (
        FaultRule(MIGRATE, guest=client, to_machine="xenhost2", delay=0.010),
        FaultRule(CRASH, guest="spare", delay=0.020, restart_after=0.015),
        FaultRule(MIGRATE, guest=client, to_machine="xenhost", delay=0.045),
    )


@scenario
def xenloop_serving(
    costs: CostModel = DEFAULT_COSTS,
    seed: int = 0,
    n_clients: int = 2,
    data_path: str = "fifo",
    churn: bool = False,
) -> topology.Cluster:
    """Open-loop request/response serving; tail latency, optional churn.

    One server guest and ``n_clients`` client guests are co-resident on
    one Xen machine.  With ``churn=True`` a second machine hosts a
    bystander guest, the migration target of the rules from
    :func:`serving_churn_schedule`."""
    module = _module_for(data_path)
    guests = [topology.GuestSpec("srv", module=module)]
    guests += [topology.GuestSpec(f"c{i + 1}", module=module) for i in range(n_clients)]
    machines = [topology.MachineSpec(name="xenhost", guests=tuple(guests))]
    if churn:
        machines.append(
            topology.MachineSpec(
                name="xenhost2",
                guests=(topology.GuestSpec("spare", module=module),),
            )
        )
        costs = _churn_costs(costs)
    spec = topology.ClusterSpec(
        name="xenloop_serving",
        machines=tuple(machines),
        endpoints=("c1", "srv"),
    )
    return spec.build(costs, seed=seed)


def run_serving_cell(
    data_path: str = "fifo",
    requests: int = 2000,
    rate: float = 20_000.0,
    arrival: str = "poisson",
    n_clients: int = 2,
    conns_per_client: int = 4,
    slo: float = 0.002,
    churn: bool = False,
    loss: float = 0.0,
    seed: int = 0,
    costs: CostModel = DEFAULT_COSTS,
) -> dict:
    """Build + run one serving cell; returns a flat deterministic dict.

    Percentiles are reported both in microseconds and as histogram
    bucket indices (``p50_idx``/``p99_idx``) -- the indices are integer
    and platform-exact, which is what the goldens pin.  The churn and
    loss rules share one plan, bound after warmup, so the churn offsets
    count from the start of the workload.
    """
    from repro.workloads import serving

    scn = xenloop_serving(
        costs=costs, seed=seed, n_clients=n_clients, data_path=data_path, churn=churn
    )
    rules = serving_churn_schedule("c1") if churn else ()
    if loss > 0.0:
        rules += loss_plan(loss, seed=seed).rules
    scn.warmup()
    if rules:
        FaultPlan(rules, seed=seed).bind(scn)
    result = serving.open_loop_rr(
        scn,
        server="srv",
        clients=[f"c{i + 1}" for i in range(n_clients)],
        requests=requests,
        rate=rate,
        arrival=arrival,
        conns_per_client=conns_per_client,
        slo=slo,
    )
    out = {
        "scenario": "serving",
        "data_path": data_path,
        "arrival": arrival,
        "requests": requests,
        "rate": rate,
        "n_clients": n_clients,
        "churn": churn,
        "loss": loss,
        "events": scn.sim.event_count,
        "offered": result.offered,
        "completed": result.completed,
        "errors": result.errors,
        "duration": round(result.duration, 9),
        "throughput_rps": round(result.throughput_rps, 3),
        "p50_us": round(result.p50_us, 3),
        "p99_us": round(result.p99_us, 3),
        "p999_us": round(result.p999_us, 3),
        "p50_idx": result.p50_idx,
        "p99_idx": result.p99_idx,
        "slo_violations": result.slo_violations,
        "reconnects": result.reconnects,
    }
    plan = scn.sim.fault_plan
    if plan is not None:
        out["frames_dropped"] = plan.injected.get(PKT_LOSS, 0)
    return out
