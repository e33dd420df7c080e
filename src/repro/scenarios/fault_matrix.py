"""The fault-matrix sweep: {frame type x handshake phase x fault kind}.

The recovery claims of Sect. 3.2-3.4 (handshake retries, ack-timeout
abort, netfront fallback, soft-state pruning after a peer dies) are
exercised here as a matrix of small scenarios: each :class:`MatrixCell`
builds a fresh two-guest cluster, binds a seeded
:class:`~repro.faults.FaultPlan` for one fault, drives UDP traffic
through the disruption, and then checks the convergence invariants --
every surviving channel endpoint is CONNECTED (or cleanly gone from the
table), no grant entries, event-channel ports, ARP waiters, or
reassembly buffers leak, and (where the cell expects it) the traffic
completed anyway via the standard path.

``run_fault_matrix`` runs every cell and returns result dicts that
:func:`repro.report.format_fault_matrix` renders; the CLI exposes it as
``python -m repro faults`` and CI runs it via ``make fault-matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import faults, topology
from repro.calibration import DEFAULT_COSTS, CostModel
from repro.core.channel import Channel
from repro.scenarios.registry import scenario

__all__ = [
    "MatrixCell",
    "fault_matrix",
    "matrix_cells",
    "run_cell",
    "run_fault_matrix",
]

#: cost overrides that make one cell fast: frequent announcements (the
#: connector's retry clock) and a short ack timeout.
MATRIX_COSTS = DEFAULT_COSTS.replace(discovery_period=0.2, bootstrap_timeout=0.01)

#: UDP traffic shape per cell: ``N_DATAGRAMS`` sends spaced ``GAP``
#: seconds apart span several discovery periods, so every fault window
#: (bootstrap, steady state, post-recovery) sees traffic.
N_DATAGRAMS = 30
GAP = 0.05
PORT = 7200
PAYLOAD = bytes(range(256))
SETTLE = 2.0


@dataclass(frozen=True)
class MatrixCell:
    """One swept point: a named fault against the two-guest pair.

    ``expect_traffic`` asserts every datagram arrived (channel or
    netfront fallback); ``min_frac`` relaxes that for cells where some
    in-flight loss is legitimate (migration downtime).  ``machines``
    is 2 for cells that need a second Xen machine (forced migration).
    """

    name: str
    rules: tuple[faults.FaultRule, ...]
    expect_traffic: bool = True
    min_frac: float = 1.0
    machines: int = 1
    #: send vm2 -> vm1 instead: the larger-domid guest then initiates
    #: the bootstrap, which is the only path that emits ConnectRequest.
    reverse: bool = False
    #: pin vm2's MAC in its spec (a fixed ``vif mac=`` config line): a
    #: crash + restart then re-advertises the SAME MAC under a fresh
    #: domid, exercising the identity-refresh path instead of the
    #: vanished-peer prune.
    pin_mac: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))

    @property
    def pair_kwargs(self) -> dict:
        """The :func:`fault_matrix` builder arguments this cell runs on
        (also the ``kwargs`` of its snapshot recipe)."""
        return {"machines": self.machines, "pin_mac": self.pin_mac}


def matrix_cells() -> list[MatrixCell]:
    """The full sweep: control frames x {drop, delay, dup}, notify
    loss, map failure, crash x {bootstrapping, connected}, crash with
    restart, forced migration."""
    R = faults.FaultRule
    cells: list[MatrixCell] = []
    # Control-frame faults by message type.  vm1 (smaller domid) is the
    # listener, vm2 the connector; Announce rules match the recipient.
    for msg in ("ConnectRequest", "CreateChannel", "ChannelAck", "Announce"):
        rev = msg == "ConnectRequest"
        cells.append(
            MatrixCell(
                f"drop:{msg}", (R(faults.CONTROL_DROP, message=msg),), reverse=rev
            )
        )
        cells.append(
            MatrixCell(
                f"delay:{msg}",
                (R(faults.CONTROL_DELAY, message=msg, delay=0.03),),
                reverse=rev,
            )
        )
        cells.append(
            MatrixCell(
                f"dup:{msg}", (R(faults.CONTROL_DUP, message=msg),), reverse=rev
            )
        )
    # Drop EVERY CreateChannel: the listener must burn its retry ladder
    # and abort cleanly; traffic still completes via netfront.
    cells.append(
        MatrixCell(
            "drop_all:CreateChannel",
            (R(faults.CONTROL_DROP, message="CreateChannel", times=None),),
        )
    )
    # Lost event-channel notifies mid-stream on the connected channel
    # (skip past the bootstrap-era netfront ring wakeups, where a lost
    # UDP datagram is ordinary UDP loss, not a XenLoop recovery): the
    # drain loop's pending re-check and the next data notify must
    # recover the stuck FIFO entries.
    cells.append(
        MatrixCell("notify_drop", (R(faults.NOTIFY_DROP, times=3, skip=35),))
    )
    # Injected map_grant failure: the connector aborts, the listener's
    # retry reconnects on a fresh channel.
    cells.append(MatrixCell("map_fail", (R(faults.MAP_FAIL, times=1),)))
    # Guest crash at a chosen handshake phase (no shutdown callbacks).
    cells.append(
        MatrixCell(
            "crash:bootstrapping",
            (R(faults.CRASH, guest="vm2", phase="bootstrapping"),),
            expect_traffic=False,
        )
    )
    cells.append(
        MatrixCell(
            "crash:connected",
            (R(faults.CRASH, guest="vm2", phase="connected", delay=0.3),),
            expect_traffic=False,
        )
    )
    cells.append(
        MatrixCell(
            "crash_restart:connected",
            (
                R(
                    faults.CRASH,
                    guest="vm2",
                    phase="connected",
                    delay=0.3,
                    restart_after=0.3,
                ),
            ),
            expect_traffic=False,
        )
    )
    # The same crash + restart, but vm2's spec pins its MAC: the new
    # incarnation re-advertises the SAME MAC under a changed domid, and
    # vm1 must refresh the stale mapping in place (tearing down the
    # dead channel) rather than keep routing to the old domid.
    cells.append(
        MatrixCell(
            "crash_restart_same_mac:connected",
            (
                R(
                    faults.CRASH,
                    guest="vm2",
                    phase="connected",
                    delay=0.3,
                    restart_after=0.3,
                ),
            ),
            expect_traffic=False,
            pin_mac=True,
        )
    )
    # Forced live migration mid-traffic (needs a second machine).
    cells.append(
        MatrixCell(
            "migrate:connected",
            (
                R(
                    faults.MIGRATE,
                    guest="vm2",
                    phase="connected",
                    to_machine="xenB",
                    delay=0.3,
                ),
            ),
            min_frac=0.5,
            machines=2,
        )
    )
    return cells


@scenario
def fault_matrix(
    costs: CostModel = DEFAULT_COSTS,
    seed: int = 0,
    machines: int = 1,
    pin_mac: bool = False,
) -> topology.Cluster:
    """Two XenLoop guests on one Xen machine: the fault matrix's pair.

    ``machines=2`` adds an empty second machine as a migration target
    (it runs Dom0 discovery too, as every Xen machine of a
    module-loading cluster does).  ``pin_mac`` fixes vm2's MAC in its
    spec (high in the Xen OUI, far above anything the auto-allocator
    hands out), so a restart reuses it instead of minting a fresh
    identity.  No fault plan is bound: each cell binds its own after
    the build (see :func:`run_cell`).
    """
    mspecs = [
        topology.MachineSpec(
            name="xenA",
            guests=(
                topology.GuestSpec("vm1", ip="10.0.0.1"),
                topology.GuestSpec(
                    "vm2",
                    ip="10.0.0.2",
                    mac="00:16:3e:ff:00:02" if pin_mac else None,
                ),
            ),
        )
    ]
    if machines > 1:
        mspecs.append(topology.MachineSpec(name="xenB"))
    spec = topology.ClusterSpec(
        name="fault_matrix",
        machines=tuple(mspecs),
        expect_channels=False,
    )
    return spec.build(costs, seed=seed)


# ---------------------------------------------------------------------------
# Leak and convergence checks
# ---------------------------------------------------------------------------

def _check_invariants(cluster: topology.Cluster, received: int, sent: int, cell: MatrixCell) -> list[str]:
    """Every violated invariant as a human-readable string (empty = pass)."""
    problems: list[str] = []
    alive = {n: g for n, g in cluster.guests.items() if g.alive}

    # Channel tables converged: after unload every table must be empty
    # (unload tears everything down; a lingering entry means a channel
    # ended neither CONNECTED-then-closed nor cleanly FAILED).
    for name, module in cluster.modules.items():
        if name not in alive:
            continue
        for mac, channel in module.channels.items():
            problems.append(f"{name}: channel to {mac} still {channel.state.value}")

    for machine in cluster.machines:
        hyper = getattr(machine, "hypervisor", None)
        if hyper is None:
            continue
        dom0 = machine.dom0.domid
        # Grant leaks: entries granted guest-to-guest are XenLoop's
        # (netfront/netback grants target Dom0).
        for domid, table in hyper.grant_tables.items():
            stale = [
                g for g, e in table._entries.items() if e.granted_to != dom0
            ]
            if stale:
                problems.append(
                    f"{machine.name}/dom{domid}: {len(stale)} leaked grant entries"
                )
        # Event-channel port leaks: any port whose handler is bound to a
        # Channel survived its channel's teardown.
        for port in hyper.evtchn._ports.values():
            owner = getattr(port.handler, "__self__", None)
            if isinstance(owner, Channel):
                problems.append(f"{machine.name}: leaked channel port {port!r}")

    for name, guest in alive.items():
        waiters = guest.stack.arp._waiters
        if waiters:
            problems.append(f"{name}: {len(waiters)} leaked ARP waiter lists")
        pending = guest.stack.ipv4.reassembler.pending
        if pending:
            problems.append(f"{name}: {pending} leaked reassembly buffers")

    if cell.expect_traffic and received < int(sent * cell.min_frac):
        problems.append(f"traffic lost: {received}/{sent} datagrams delivered")
    return problems


def _exercise_cell(cluster: topology.Cluster, cell: MatrixCell) -> int:
    """Drive, settle, and unload one cell's traffic on ``cluster``;
    returns the number of datagrams the server received."""
    sim = cluster.sim

    src, dst_ip = cluster.node_a, cluster.ip_b
    dst = cluster.node_b
    if cell.reverse:
        src, dst, dst_ip = dst, src, cluster.ip_a

    server = dst.stack.udp_socket(PORT)
    received: list[bytes] = []

    def srv():
        while True:
            data, _ = yield from server.recvfrom()
            received.append(data)

    sim.process(srv(), name="fault-server")

    client = src.stack.udp_socket()

    def drive():
        for _ in range(N_DATAGRAMS):
            yield from client.sendto(PAYLOAD, (dst_ip, PORT))
            yield sim.timeout(GAP)

    driver = sim.process(drive(), name="fault-traffic")
    sim.run_until_complete(driver, timeout=60.0)
    sim.run(until=sim.now + SETTLE)

    # Unload every module still backed by a live guest, so the teardown
    # paths under test run and the leak checks below are meaningful.
    for name, module in list(cluster.modules.items()):
        guest = cluster.guests.get(name)
        if guest is None or not guest.alive or not module.loaded:
            continue
        proc = sim.process(module.unload(), name=f"unload-{name}")
        sim.run_until_complete(proc, timeout=30.0)
    sim.run(until=sim.now + 0.5)
    return len(received)


def _run_cell_on(cluster: topology.Cluster, cell: MatrixCell, seed: int) -> dict:
    """Fault, drive, settle, unload, check one cell on a pre-built pair.

    The plan binds *after* the build, so a cell runs identically on a
    fresh build and on a pair restored from a post-build snapshot
    (``python -m repro snapshot replay`` relies on this).
    """
    plan = faults.FaultPlan(cell.rules, seed=seed).bind(cluster)
    received = _exercise_cell(cluster, cell)

    problems = _check_invariants(cluster, received, N_DATAGRAMS, cell)
    snap = plan.snapshot()
    return {
        "cell": cell.name,
        "ok": not problems,
        "detail": "; ".join(problems),
        "injected": snap["injected"],
        "recovered": snap["recovered"],
        "degraded": snap["degraded"],
        "received": received,
        "sent": N_DATAGRAMS,
        # Calendar entries processed: two equal results mean the two
        # runs walked the same event stream (the determinism check).
        "events": cluster.sim.event_count,
    }


def run_cell(cell: MatrixCell, costs: CostModel = MATRIX_COSTS, seed: int = 0) -> dict:
    """Build, fault, drive, settle, unload, check one cell."""
    cluster = fault_matrix(costs, seed, **cell.pair_kwargs)
    return _run_cell_on(cluster, cell, seed)


def run_fault_matrix(costs: CostModel = MATRIX_COSTS, seed: int = 0) -> list[dict]:
    """Run every cell of the sweep (a fresh pair per cell); returns one
    result dict per cell."""
    return [run_cell(cell, costs, seed=seed) for cell in matrix_cells()]
