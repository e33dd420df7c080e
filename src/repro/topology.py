"""Declarative cluster topologies: specs in, running scenarios out.

The paper's evaluation uses a handful of hand-wired 2-3 VM setups; the
roadmap's churn-heavy many-VM experiments need topologies that compose.
This module is the declarative layer: you describe a cluster --
machines, guests, per-guest module configuration, churn schedule --
as plain dataclasses, and :meth:`ClusterSpec.build` turns
the description into a live :class:`Cluster` (a
:class:`~repro.scenarios.Scenario` subclass, so every existing
workload, report, and trace helper works on it unchanged).

Determinism contract: ``build`` constructs the simulation in a fixed
phase order -- switch, machine shells, network attachment (per machine,
in listed order), guests (in listed order), XenLoop modules (in guest
order), discovery modules (in machine order) -- so a spec builds the
same event sequence every time, and the hand-written paper scenarios
re-expressed as specs (see :mod:`repro.scenarios.paper`) reproduce
their golden results bit-identically.

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
from dataclasses import dataclass, field
from typing import Optional

from repro.calibration import DEFAULT_COSTS, CostModel
from repro.core.discovery import DiscoveryModule
from repro.core.module import XenLoopModule
from repro.net.addr import IPv4Addr, MacAddr
from repro.net.nic import EthernetSwitch, PhysNIC
from repro.net.node import Node
from repro.net.stack import NetworkStack
from repro.sim.engine import Simulator
from repro.xen.machine import Machine, XenMachine

__all__ = [
    "ChurnAction",
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

    ``ip=None`` auto-assigns ``10.0.<h>.<l>`` by global guest position
    (the historical ``10.0.0.<n>`` for the first 254 guests).
    ``mac=None`` auto-assigns from the Xen OUI counter; a pinned MAC is
    *reused* when the guest is restarted after a crash/shutdown --
    modelling a config with a fixed ``vif mac=`` line -- so peers see
    the same MAC re-advertise under a new guest-ID.
    ``module`` selects the guest-resident module: ``"xenloop"`` (the
    default for guests in an all-Xen cluster), ``"socket_bypass"`` for
    the experimental transport-layer variant, or ``None`` for a plain
    guest on the standard netfront/netback path.
    ``channel_budget`` caps concurrent channels per guest (LRU eviction
    above it); None = unbounded (the paper's behaviour).
    """

    name: str
    ip: Optional[str] = None
    module: Optional[str] = "xenloop"
    fifo_order: int = 13
    zero_copy_rx: bool = False
    mac: Optional[str] = None
    channel_budget: Optional[int] = None


@dataclass(frozen=True)
class MachineSpec:
    """One physical machine: ``kind="xen"`` (Dom0 + guests) or
    ``kind="native"`` (bare host nodes, one per GuestSpec).

    ``nic_mac`` overrides the auto-assigned physical MAC used when the
    cluster has a switch.  ``discovery=None`` auto-enables the Dom0
    discovery module whenever any guest on the machine loads XenLoop.
    """

    name: str
    guests: tuple[GuestSpec, ...] = ()
    kind: str = "xen"
    n_cores: int = 2
    nic_mac: Optional[str] = None
    discovery: Optional[bool] = None

    def __post_init__(self):
        if self.kind not in ("xen", "native"):
            raise ValueError(f"machine kind must be 'xen' or 'native', not {self.kind!r}")
        object.__setattr__(self, "guests", tuple(self.guests))


@dataclass(frozen=True)
class ChurnAction:
    """One scheduled lifecycle disruption.

    ``action``: ``"migrate"`` (live-migrate ``guest`` to
    ``to_machine``), ``"shutdown"`` (clean guest shutdown),
    ``"crash"`` (abrupt death: no callbacks run, peers recover via the
    announcement diff), ``"restart"`` (re-create a crashed/shut-down
    guest from its spec), or ``"unload"`` (remove the guest's XenLoop
    module).  ``at`` is simulated seconds after
    :meth:`Cluster.start_churn` is called.
    """

    at: float
    action: str
    guest: str
    to_machine: Optional[str] = None

    def __post_init__(self):
        if self.action not in ("migrate", "shutdown", "crash", "restart", "unload"):
            raise ValueError(f"unknown churn action {self.action!r}")
        if self.action == "migrate" and self.to_machine is None:
            raise ValueError("migrate needs to_machine")


# Import here to avoid a cycle at module-import time: scenarios.base
# imports nothing from topology, but importing it runs scenarios/__init__,
# whose builder modules refer to ``topology.Cluster`` only at call time.
from repro.scenarios.base import Scenario  # noqa: E402


@dataclass
class Cluster(Scenario):
    """A built cluster: a Scenario plus by-name access to everything.

    ``node_a``/``node_b`` (the Scenario endpoints) are the cluster's
    declared endpoints; :meth:`view` re-aims them at any guest pair so
    the per-pair netperf workloads run between arbitrary guests.
    """

    spec: Optional[ClusterSpec] = None
    #: guest/host nodes by spec name, in declaration order.
    guests: dict = field(default_factory=dict)
    #: machines by spec name.
    machines_by_name: dict = field(default_factory=dict)
    #: all Dom0 discovery modules (Scenario.discovery is the first).
    discoveries: list = field(default_factory=list)

    # -- checkpoint / replay -------------------------------------------
    def snapshot(self, recipe: Optional[dict] = None, label: str = "") -> "object":
        """Capture this cluster as a :class:`~repro.sim.snapshot.SimSnapshot`.

        The capture is read-only: the cluster keeps running exactly as it
        would have.  When built from a ``recipe``, the snapshot can
        ``save()``/``restore()`` across processes (digest-verified replay).
        """
        from repro.sim.snapshot import SimSnapshot

        return SimSnapshot.capture(self, recipe=recipe, label=label)

    @classmethod
    def from_snapshot(cls, source) -> "Cluster":
        """Rebuild a cluster from a snapshot (a :class:`SimSnapshot` or a
        path to one saved with ``SimSnapshot.save``), digest-verified."""
        from repro.sim.snapshot import SimSnapshot

        snap = SimSnapshot.load(source) if isinstance(source, (str, bytes)) else source
        return snap.restore()

    def view(self, client: str, server: str) -> "Cluster":
        """A shallow endpoint view: same simulation, endpoints re-aimed
        at ``client``/``server`` (for running a workload between them)."""
        a, b = self.guests[client], self.guests[server]
        return dataclasses.replace(
            self, node_a=a, node_b=b, ip_a=a.stack.ip, ip_b=b.stack.ip
        )

    # -- churn ---------------------------------------------------------
    def start_churn(self) -> None:
        """Spawn the churn schedule (one process; actions run at their
        ``at`` offsets from now, in list order)."""
        if self.spec and self.spec.churn:
            self.sim.process(self._churn_runner(), name="cluster-churn")

    def _churn_runner(self):
        from repro.xen.migration import live_migrate

        start = self.sim.now
        for action in sorted(self.spec.churn, key=lambda a: a.at):
            delay = start + action.at - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            if action.action == "restart":
                self.restart_guest(action.guest)
                continue
            guest = self.guests[action.guest]
            if action.action == "migrate":
                yield from live_migrate(guest, self.machines_by_name[action.to_machine])
            elif action.action == "shutdown":
                yield from guest.shutdown()
            elif action.action == "crash":
                guest.crash()
            elif action.action == "unload":
                module = self.modules.get(action.guest)
                if module is not None:
                    yield from module.unload()

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
        if self.spec is None:
            raise ValueError("restart_guest needs a spec-built cluster")
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
            prefix_len=self.spec.prefix_len,
        )
        self.guests[name] = guest
        if gspec.module is not None:
            self.modules[name] = _load_module(gspec, guest, self.spec.discovery_mode)
        guest.stack.arp.announce()
        # Re-aim the measurement endpoints at the new incarnation.
        if self.node_a is old:
            self.node_a, self.ip_a = guest, guest.stack.ip
        if self.node_b is old:
            self.node_b, self.ip_b = guest, guest.stack.ip
        return guest

    def run_churn(self, settle: float = 1.0) -> None:
        """Start the churn schedule and run the simulation through it
        (plus ``settle`` seconds for teardowns to complete)."""
        if not (self.spec and self.spec.churn):
            return
        self.start_churn()
        horizon = self.sim.now + max(a.at for a in self.spec.churn) + settle
        self.sim.run(until=horizon)


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
    churn: tuple[ChurnAction, ...] = ()
    #: discovery protocol: "announce" (the paper's full-roster unicast,
    #: default -- byte-identical to the historical build) or "delta"
    #: (the thousand-guest control plane: RosterDelta/FullSync
    #: multicasts, WhoIs lookups, sparse per-guest rosters).
    discovery_mode: str = "announce"
    #: delta mode: scans between FullSync heartbeats.
    full_sync_every: int = 8
    #: subnet prefix for auto-configured guest stacks.  The default /24
    #: caps auto-IP allocation at 254 guests; big clusters use 16.
    prefix_len: int = 24

    def __post_init__(self):
        object.__setattr__(self, "machines", tuple(self.machines))
        object.__setattr__(self, "churn", tuple(self.churn))
        if self.discovery_mode not in ("announce", "delta"):
            raise ValueError(f"unknown discovery_mode {self.discovery_mode!r}")
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
                machine = XenMachine(
                    sim, costs, mspec.name, n_cores=mspec.n_cores, guest_macs=guest_macs
                )
            else:
                machine = Machine(sim, costs, mspec.name, n_cores=mspec.n_cores)
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
                    NetworkStack(node, ips[gspec.name], prefix_len=self.prefix_len)
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
                    prefix_len=self.prefix_len,
                )

        # Phase 4: guest modules, in global guest order.
        modules = {}
        for mspec, machine in machines:
            if mspec.kind != "xen":
                continue
            for gspec in mspec.guests:
                if gspec.module is not None:
                    modules[gspec.name] = _load_module(
                        gspec, guests[gspec.name], self.discovery_mode
                    )

        # Phase 5: Dom0 discovery, in machine order.
        discoveries = []
        for mspec, machine in machines:
            if mspec.kind != "xen":
                continue
            wants = mspec.discovery
            if wants is None:
                wants = any(g.name in modules for g in mspec.guests)
            if wants:
                discoveries.append(
                    DiscoveryModule(
                        machine,
                        mode=self.discovery_mode,
                        full_sync_every=self.full_sync_every,
                    )
                )

        end_a, end_b = self.resolved_endpoints()
        return Cluster(
            name=self.name,
            sim=sim,
            costs=costs,
            node_a=guests[end_a],
            node_b=guests[end_b],
            ip_a=ips[end_a],
            ip_b=ips[end_b],
            machines=[m for _, m in machines],
            switch=switch,
            modules=modules,
            discovery=discoveries[0] if discoveries else None,
            expect_channels=self._resolve_expect_channels(modules, end_a, end_b),
            spec=self,
            guests=guests,
            machines_by_name={mspec.name: m for mspec, m in machines},
            discoveries=discoveries,
        )

    def _resolve_expect_channels(self, modules: dict, end_a: str, end_b: str) -> bool:
        # Scenario._channels_connected only watches the endpoint modules,
        # so warmup can wait whenever the measured pair are co-resident
        # module-loaded guests (other guests connect lazily on their
        # own first traffic); endpoints on different machines can only
        # connect after a migration, so warmup must not wait for them.
        if self.expect_channels is not None:
            return self.expect_channels
        if not modules:
            return True  # Scenario.warmup skips the wait when moduleless
        if end_a not in modules or end_b not in modules or end_a == end_b:
            return False
        home = {}
        for mspec in self.machines:
            for gspec in mspec.guests:
                home[gspec.name] = mspec.name
        return home[end_a] == home[end_b]


def _load_module(gspec: GuestSpec, guest, discovery_mode: str):
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
        channel_budget=gspec.channel_budget,
        delta_discovery=discovery_mode == "delta",
    )


def _ip_allocator(spec: ClusterSpec):
    """Yield (GuestSpec, IPv4Addr) in global declaration order, honouring
    explicit ``ip`` fields and auto-assigning ``10.0.<h>.<l>``.

    Positions 1-254 get the historical ``10.0.0.<position>`` addresses
    (so small-cluster goldens are untouched); the low octet then wraps
    within 1-254 and the third octet climbs -- a /16 pool good for
    64,516 guests.  Auto addresses beyond the spec's ``prefix_len``
    capacity are rejected: a thousand-guest cluster must say
    ``prefix_len=16`` or packets to high guests would be routed through
    the (nonexistent) gateway.
    """
    position = 0
    for mspec in spec.machines:
        for gspec in mspec.guests:
            position += 1
            if gspec.ip:
                ip = IPv4Addr(gspec.ip)
            else:
                high, low = divmod(position - 1, 254)
                if high > 255:
                    raise ValueError(
                        f"cluster {spec.name!r}: auto-IP pool exhausted at "
                        f"guest position {position} (max 64516)"
                    )
                ip = IPv4Addr(f"10.0.{high}.{low + 1}")
                if high > 0 and spec.prefix_len > 16:
                    raise ValueError(
                        f"cluster {spec.name!r}: guest position {position} "
                        f"needs auto-IP {ip}, outside the /{spec.prefix_len} "
                        f"subnet -- set ClusterSpec(prefix_len=16) for "
                        f"clusters beyond 254 auto-addressed guests"
                    )
            yield gspec, ip
