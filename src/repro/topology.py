"""Declarative cluster topologies: specs in, running clusters out.

The paper's evaluation topologies (Sect. 4), the multi-guest and
migration setups, and the serving and fault-matrix cells are all
described here as specs rather than wired by hand.  You describe a
cluster -- machines, guests, per-guest module configuration -- as
plain dataclasses, and :meth:`ClusterSpec.build` turns
the description into a live :class:`Cluster`, the one object every
scenario builder returns and every workload, report, trace helper and
snapshot works on.

Determinism contract: ``build`` constructs the simulation in a fixed
phase order -- switch, machine shells, network attachment (per machine,
in listed order), guests (in listed order), XenLoop modules (in guest
order), discovery modules (in machine order) -- so a spec builds the
same event sequence every time, and the hand-written paper scenarios
re-expressed as specs (see :mod:`repro.scenarios.paper`) reproduce
their golden results bit-identically.  Lifecycle disruption
(migrations, crashes, restarts) is not part of a spec: a
:class:`~repro.faults.FaultPlan` bound to the built cluster schedules
it, calling :meth:`Cluster.restart_guest` to bring a guest back.

Example -- eight guests across two Xen machines, one UDP stream::

    spec = ClusterSpec(
        name="two_racks",
        machines=[
            MachineSpec("xenA", guests=[GuestSpec(f"a{i}") for i in range(4)]),
            MachineSpec("xenB", guests=[GuestSpec(f"b{i}") for i in range(4)]),
        ],
    )
    cluster = spec.build(costs, seed=7)
    cluster.warmup()
    result = netperf.udp_stream(cluster.view("a0", "a1"))
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Optional

from repro.calibration import DEFAULT_COSTS, CostModel
from repro.core.channel import ChannelState
from repro.core.discovery import DiscoveryModule
from repro.core.module import XenLoopModule
from repro.net.addr import IPv4Addr, MacAddr
from repro.net.nic import EthernetSwitch, PhysNIC
from repro.net.node import Node
from repro.net.stack import NetworkStack
from repro.sim.engine import SimulationError, Simulator
from repro.xen.machine import Machine, XenMachine

__all__ = [
    "Cluster",
    "ClusterSpec",
    "GuestSpec",
    "MachineSpec",
]

#: OUI base for auto-assigned physical NIC MACs (matches the paper
#: scenarios' hand-picked addresses).
_PHYS_MAC_BASE = 0x0002B3000001


@dataclass(frozen=True)
class GuestSpec:
    """One guest (Xen machine) or one host node (native machine).

    ``ip=None`` auto-assigns ``10.0.0.<n>`` by global guest position.
    ``mac=None`` auto-assigns from the Xen OUI counter; a pinned MAC is
    *reused* when the guest is restarted after a crash/shutdown --
    modelling a config with a fixed ``vif mac=`` line -- so peers see
    the same MAC re-advertise under a new guest-ID.
    ``module`` selects the guest-resident module: ``"xenloop"`` (the
    default for guests in an all-Xen cluster), ``"socket_bypass"`` for
    the experimental transport-layer variant, or ``None`` for a plain
    guest on the standard netfront/netback path.
    """

    name: str
    ip: Optional[str] = None
    module: Optional[str] = "xenloop"
    fifo_order: int = 13
    zero_copy_rx: bool = False
    mac: Optional[str] = None


@dataclass(frozen=True)
class MachineSpec:
    """One physical machine: ``kind="xen"`` (Dom0 + guests) or
    ``kind="native"`` (bare host nodes, one per GuestSpec).

    ``nic_mac`` overrides the auto-assigned physical MAC used when the
    cluster has a switch.  Every machine has two cores.  A Xen machine
    runs the Dom0 discovery module iff any guest in the cluster loads a
    module, so an empty machine can still discover a guest that
    migrates in.
    """

    name: str
    guests: tuple[GuestSpec, ...] = ()
    kind: str = "xen"
    nic_mac: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("xen", "native"):
            raise ValueError(f"machine kind must be 'xen' or 'native', not {self.kind!r}")
        object.__setattr__(self, "guests", tuple(self.guests))


@dataclass
class Cluster:
    """A built cluster: the simulation, its two measurement endpoints,
    and by-name access to everything in it.

    ``node_a``/``node_b`` are the declared endpoints (the same node for
    a loopback cluster); :meth:`view` re-aims them at any guest pair so
    the per-pair netperf workloads run between arbitrary guests.
    """

    spec: ClusterSpec
    sim: Simulator
    costs: CostModel
    node_a: Node
    node_b: Node
    ip_a: IPv4Addr
    ip_b: IPv4Addr
    #: machines in declaration order.
    machines: list
    switch: Optional[EthernetSwitch]
    #: guest name -> loaded guest module.
    modules: dict
    #: guest/host nodes by spec name, in declaration order.
    guests: dict
    #: machines by spec name.
    machines_by_name: dict
    #: Dom0 discovery modules, in machine order.
    discoveries: list
    #: whether warmup() waits for the endpoints' channels to connect.
    expect_channels: bool

    @property
    def name(self) -> str:
        return self.spec.name

    def warmup(self, max_wait: float = 30.0) -> None:
        """Run the simulation until the data path is in steady state:
        ARP resolved and, for module-loaded endpoints, discovery and
        channel bootstrap done, so measurements start where the
        paper's numbers do."""
        self._ping_once()
        if not self.modules or not self.expect_channels:
            return
        deadline = self.sim.now + max_wait
        while self.sim.now < deadline:
            if self._channels_connected():
                return
            # Discovery announcements arrive every discovery_period; each
            # ping after an announcement triggers channel bootstrap.
            self.sim.run(until=self.sim.now + self.costs.discovery_period / 4)
            self._ping_once()
        raise SimulationError(f"{self.name}: XenLoop channels never connected")

    def _ping_once(self) -> None:
        stack = self.node_a.stack

        def _gen():
            ident = stack.icmp.alloc_ident()
            waiter = yield from stack.icmp.send_echo(self.ip_b, ident, 0)
            yield self.sim.any_of([waiter, self.sim.timeout(1.0)])

        proc = self.sim.process(_gen(), name="warmup-ping")
        self.sim.run_until_complete(proc, timeout=5.0)

    def _channels_connected(self) -> bool:
        # Other guests' channels form lazily on their own first
        # traffic: warmup only waits for the measured endpoints.
        endpoint_modules = [
            m
            for m in (self.modules.get(self.node_a.name), self.modules.get(self.node_b.name))
            if m is not None
        ]
        return all(
            any(ch.state is ChannelState.CONNECTED for ch in m.channels.values())
            for m in endpoint_modules
        )

    def xenloop_module(self, node: Node) -> Optional[XenLoopModule]:
        """The XenLoop module loaded in ``node``, if any."""
        return self.modules.get(node.name)

    def view(self, client: str, server: str) -> "Cluster":
        """A shallow endpoint view: same simulation, endpoints re-aimed
        at ``client``/``server`` (for running a workload between them)."""
        a, b = self.guests[client], self.guests[server]
        return dataclasses.replace(
            self, node_a=a, node_b=b, ip_a=a.stack.ip, ip_b=b.stack.ip
        )

    def restart_guest(self, name: str) -> Node:
        """Re-create a crashed or shut-down guest from its spec.

        The new incarnation keeps the spec's name and IP but gets a
        fresh domid -- and, by default, a fresh MAC (exactly what ``xl
        create`` after ``xl destroy`` does), so peers see a *new
        identity* appear in the next announcement and the old channel,
        if any survived, is pruned by the soft-state diff, never
        resurrected.  A spec-pinned ``mac`` is reused instead (a config
        with a fixed ``vif mac=`` line): peers then see the *same MAC*
        re-advertise under a changed guest-ID and must refresh their
        mapping in place.  A gratuitous ARP re-teaches bridges and
        neighbour caches the name->MAC binding either way.
        """
        gspec = mspec = None
        for ms in self.spec.machines:
            for gs in ms.guests:
                if gs.name == name:
                    gspec, mspec = gs, ms
        if gspec is None or mspec.kind != "xen":
            raise ValueError(f"{name!r} is not a restartable Xen guest of this spec")
        old = self.guests.get(name)
        if old is not None and old.alive:
            raise ValueError(f"guest {name!r} is still alive")
        machine = self.machines_by_name[mspec.name]
        ips = {gs.name: ip for gs, ip in _ip_allocator(self.spec)}
        guest = machine.create_guest(
            name,
            ip=ips[name],
            mac=MacAddr(gspec.mac) if gspec.mac else None,
        )
        self.guests[name] = guest
        if gspec.module is not None:
            self.modules[name] = _load_module(gspec, guest)
        guest.stack.arp.announce()
        # Re-aim the measurement endpoints at the new incarnation.
        if self.node_a is old:
            self.node_a, self.ip_a = guest, guest.stack.ip
        if self.node_b is old:
            self.node_b, self.ip_b = guest, guest.stack.ip
        return guest


@dataclass(frozen=True)
class ClusterSpec:
    """The declarative description :meth:`build` turns into a Cluster."""

    name: str
    machines: tuple[MachineSpec, ...] = ()
    #: the two measurement endpoints, by guest name; defaults to the
    #: first two guests in declaration order (or the first guest twice
    #: for a single-node loopback cluster).
    endpoints: Optional[tuple[str, str]] = None
    #: whether warmup() waits for every module to have a CONNECTED
    #: channel; None = auto (True iff the endpoints are co-resident
    #: module-loaded guests and are the only module-loaded guests).
    expect_channels: Optional[bool] = None

    def __post_init__(self):
        object.__setattr__(self, "machines", tuple(self.machines))
        names = [g.name for m in self.machines for g in m.guests]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate guest names in cluster {self.name!r}")
        if not names:
            raise ValueError(f"cluster {self.name!r} has no guests")
        if self.endpoints is not None:
            for end in self.endpoints:
                if end not in names:
                    raise ValueError(f"endpoint {end!r} is not a declared guest")

    # -- derived properties -------------------------------------------
    def guest_names(self) -> list[str]:
        return [g.name for m in self.machines for g in m.guests]

    def needs_switch(self) -> bool:
        """A switch exists iff the cluster spans more than one machine."""
        return len(self.machines) > 1

    def resolved_endpoints(self) -> tuple[str, str]:
        if self.endpoints is not None:
            return self.endpoints
        names = self.guest_names()
        return (names[0], names[1]) if len(names) > 1 else (names[0], names[0])

    # -- construction --------------------------------------------------
    def build(self, costs: CostModel = DEFAULT_COSTS, seed: int = 0) -> Cluster:
        """Materialise the cluster (fixed phase order; see module doc)."""
        sim = Simulator(seed=seed)
        switch = EthernetSwitch(sim, costs) if self.needs_switch() else None
        # Auto guest MACs are numbered per cluster, across all machines,
        # so same-seed builds are bit-identical whatever this process
        # built before (snapshot digests depend on this).
        guest_macs = itertools.count(1)

        # Phase 1: machine shells (constructors spawn no processes).
        machines: list[tuple[MachineSpec, object]] = []
        for mspec in self.machines:
            if mspec.kind == "xen":
                machine = XenMachine(sim, costs, mspec.name, guest_macs=guest_macs)
            else:
                machine = Machine(sim, costs, mspec.name)
            machines.append((mspec, machine))

        # Phase 2: network attachment, per machine in declaration order.
        # Xen machines join the switch through Dom0's bridge; native
        # machines get their host nodes, stacks and (switched) NICs here.
        ips = {gspec.name: ip for gspec, ip in _ip_allocator(self)}
        guests: dict[str, Node] = {}
        next_phys_mac = _PHYS_MAC_BASE

        def _phys_mac(override: Optional[str]) -> MacAddr:
            nonlocal next_phys_mac
            if override is not None:
                return MacAddr(override)
            mac = MacAddr(next_phys_mac)
            next_phys_mac += 1
            return mac

        for mspec, machine in machines:
            if mspec.kind == "xen":
                if switch is not None:
                    machine.attach_network(switch, _phys_mac(mspec.nic_mac))
            else:
                for gspec in mspec.guests:
                    node = Node(sim, machine.cpus, costs, gspec.name)
                    NetworkStack(node, ips[gspec.name])
                    if switch is not None:
                        nic = PhysNIC(node, costs, f"{node.name}.eth0", _phys_mac(mspec.nic_mac))
                        nic.connect(switch)
                        node.stack.add_device(nic, primary=True)
                    guests[gspec.name] = node

        # Phase 3: Xen guests, in global declaration order (guest MACs
        # are allocated by creation order).
        for mspec, machine in machines:
            if mspec.kind != "xen":
                continue
            for gspec in mspec.guests:
                guests[gspec.name] = machine.create_guest(
                    gspec.name,
                    ip=ips[gspec.name],
                    mac=MacAddr(gspec.mac) if gspec.mac else None,
                )

        # Phase 4: guest modules, in global guest order.
        modules = {}
        for mspec, machine in machines:
            if mspec.kind != "xen":
                continue
            for gspec in mspec.guests:
                if gspec.module is not None:
                    modules[gspec.name] = _load_module(gspec, guests[gspec.name])

        # Phase 5: Dom0 discovery, in machine order, on every Xen
        # machine of a cluster that loads any guest module.
        discoveries = [
            DiscoveryModule(machine)
            for mspec, machine in machines
            if mspec.kind == "xen" and modules
        ]

        end_a, end_b = self.resolved_endpoints()
        return Cluster(
            spec=self,
            sim=sim,
            costs=costs,
            node_a=guests[end_a],
            node_b=guests[end_b],
            ip_a=ips[end_a],
            ip_b=ips[end_b],
            machines=[m for _, m in machines],
            switch=switch,
            modules=modules,
            guests=guests,
            machines_by_name={mspec.name: m for mspec, m in machines},
            discoveries=discoveries,
            expect_channels=self._resolve_expect_channels(modules, end_a, end_b),
        )

    def _resolve_expect_channels(self, modules: dict, end_a: str, end_b: str) -> bool:
        # Cluster._channels_connected only watches the endpoint modules,
        # so warmup can wait whenever the measured pair are co-resident
        # module-loaded guests (other guests connect lazily on their
        # own first traffic); endpoints on different machines can only
        # connect after a migration, so warmup must not wait for them.
        if self.expect_channels is not None:
            return self.expect_channels
        if not modules:
            return True  # Cluster.warmup skips the wait when moduleless
        if end_a not in modules or end_b not in modules or end_a == end_b:
            return False
        home = {}
        for mspec in self.machines:
            for gspec in mspec.guests:
                home[gspec.name] = mspec.name
        return home[end_a] == home[end_b]


def _load_module(gspec: GuestSpec, guest):
    """Load ``gspec``'s guest-resident module into ``guest`` (at build
    time and again when a guest is restarted)."""
    if gspec.module == "xenloop":
        module_cls = XenLoopModule
    elif gspec.module == "socket_bypass":
        from repro.core.socket_bypass import SocketBypassModule

        module_cls = SocketBypassModule
    else:
        raise ValueError(f"unknown guest module {gspec.module!r}")
    return module_cls(
        guest,
        fifo_order=gspec.fifo_order,
        zero_copy_rx=gspec.zero_copy_rx,
    )


def _ip_allocator(spec: ClusterSpec):
    """Yield (GuestSpec, IPv4Addr) in global declaration order, honouring
    explicit ``ip`` fields and auto-assigning ``10.0.0.<position>``.

    Guest stacks are configured as /24s, so auto addresses stop at
    position 254.
    """
    position = 0
    for mspec in spec.machines:
        for gspec in mspec.guests:
            position += 1
            if gspec.ip:
                ip = IPv4Addr.interned(gspec.ip)
            elif position > 254:
                raise ValueError(
                    f"cluster {spec.name!r}: auto-IP pool exhausted at "
                    f"guest position {position} (max 254)"
                )
            else:
                ip = IPv4Addr.interned(f"10.0.0.{position}")
            yield gspec, ip
