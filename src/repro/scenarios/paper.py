"""The paper's evaluation topologies as declarative specs (Sect. 4).

* ``inter_machine``     -- two native hosts across a 1 Gbps switch.
* ``netfront_netback``  -- two guests on one Xen machine, standard path.
* ``xenloop``           -- same, with the XenLoop module in both guests
  and the discovery module in Dom0.
* ``native_loopback``   -- two processes on one non-virtualized host
  over the local loopback interface (the baseline ceiling).
* ``xenloop_mesh``      -- N co-resident guests, XenLoop everywhere.
* ``migration_pair``    -- two Xen machines on a switch (Fig. 11).

Each builder is a *thin spec*: it declares the cluster with
:class:`repro.topology.ClusterSpec` and lets the topology layer build
it.  The :func:`~repro.scenarios.registry.scenario` decorator
registers every builder, so ``build(name)`` and the CLI always see the
full set; the first docstring line of each builder is its description
in ``python -m repro list``.
"""

from __future__ import annotations

from repro import topology
from repro.calibration import DEFAULT_COSTS, CostModel
from repro.scenarios.registry import scenario

__all__ = [
    "inter_machine",
    "migration_pair",
    "native_loopback",
    "netfront_netback",
    "xenloop",
    "xenloop_mesh",
]


@scenario
def inter_machine(costs: CostModel = DEFAULT_COSTS, seed: int = 0) -> topology.Cluster:
    """Two native machines across a 1 Gbps Ethernet switch."""
    spec = topology.ClusterSpec(
        name="inter_machine",
        machines=tuple(
            topology.MachineSpec(
                name=f"m{i}",
                kind="native",
                guests=(topology.GuestSpec(f"host{i}", ip=f"10.0.0.{i + 1}", module=None),),
            )
            for i in range(2)
        ),
    )
    return spec.build(costs, seed=seed)


@scenario
def native_loopback(costs: CostModel = DEFAULT_COSTS, seed: int = 0) -> topology.Cluster:
    """Two processes on one non-virtualized host, via the loopback device."""
    spec = topology.ClusterSpec(
        name="native_loopback",
        machines=(
            topology.MachineSpec(
                name="host",
                kind="native",
                guests=(topology.GuestSpec("host", ip="10.0.0.1", module=None),),
            ),
        ),
    )
    return spec.build(costs, seed=seed)


@scenario
def netfront_netback(costs: CostModel = DEFAULT_COSTS, seed: int = 0) -> topology.Cluster:
    """Co-resident guests over the standard split-driver path via Dom0."""
    spec = topology.ClusterSpec(
        name="netfront_netback",
        machines=(
            topology.MachineSpec(
                name="xenhost",
                guests=(
                    topology.GuestSpec("vm1", ip="10.0.0.1", module=None),
                    topology.GuestSpec("vm2", ip="10.0.0.2", module=None),
                ),
            ),
        ),
    )
    return spec.build(costs, seed=seed)


@scenario
def xenloop(
    costs: CostModel = DEFAULT_COSTS,
    seed: int = 0,
    fifo_order: int = 13,
    zero_copy_rx: bool = False,
    socket_bypass: bool = False,
) -> topology.Cluster:
    """Co-resident guests with XenLoop loaded (64 KB FIFOs by default).

    ``socket_bypass=True`` loads the experimental transport-layer
    variant (the paper's future work) instead of the base module.
    """
    module = "socket_bypass" if socket_bypass else "xenloop"
    spec = topology.ClusterSpec(
        name="xenloop",
        machines=(
            topology.MachineSpec(
                name="xenhost",
                guests=tuple(
                    topology.GuestSpec(
                        name,
                        ip=ip,
                        module=module,
                        fifo_order=fifo_order,
                        zero_copy_rx=zero_copy_rx,
                    )
                    for name, ip in (("vm1", "10.0.0.1"), ("vm2", "10.0.0.2"))
                ),
            ),
        ),
    )
    return spec.build(costs, seed=seed)


@scenario
def xenloop_mesh(
    n_guests: int = 3,
    costs: CostModel = DEFAULT_COSTS,
    seed: int = 0,
) -> topology.Cluster:
    """N co-resident guests, XenLoop loaded in all of them.

    ``n_guests`` guests share one Xen machine.  Channels form lazily
    and pairwise on first traffic, so a full mesh emerges only between
    guests that actually talk.  ``node_a``/``node_b`` are the first two
    guests; the rest are in ``machines[0].guests``.
    """
    if n_guests < 2:
        raise ValueError("a mesh needs at least two guests")
    spec = topology.ClusterSpec(
        name="xenloop_mesh",
        machines=(
            topology.MachineSpec(
                name="xenhost",
                guests=tuple(
                    topology.GuestSpec(f"vm{i + 1}", ip=f"10.0.0.{i + 1}")
                    for i in range(n_guests)
                ),
            ),
        ),
        # warmup() only drives a<->b; the other pairs connect on their
        # own first traffic.
        expect_channels=False,
    )
    return spec.build(costs, seed=seed)


@scenario
def migration_pair(costs: CostModel = DEFAULT_COSTS, seed: int = 0) -> topology.Cluster:
    """Two Xen machines on a switch, one XenLoop guest each (Fig. 11).

    Discovery runs in both Dom0s.  ``node_b`` (vm2, on machine B) is
    the guest that migrates.
    """
    spec = topology.ClusterSpec(
        name="migration_pair",
        machines=(
            topology.MachineSpec(
                name="xenA",
                nic_mac="00:02:b3:aa:00:01",
                guests=(topology.GuestSpec("vm1", ip="10.0.0.1"),),
            ),
            topology.MachineSpec(
                name="xenB",
                nic_mac="00:02:b3:bb:00:01",
                guests=(topology.GuestSpec("vm2", ip="10.0.0.2"),),
            ),
        ),
        expect_channels=False,
    )
    return spec.build(costs, seed=seed)
