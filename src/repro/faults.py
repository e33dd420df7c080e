"""Deterministic fault injection: seeded plans, composable rules.

The paper's transparency claim rests on XenLoop surviving the ugly
cases -- lost handshake frames, guest crashes, migration mid-traffic --
by retrying, timing out, and falling back to the standard
netfront/netback path (Sect. 3.2-3.4).  The simulated network never
loses anything on its own, so this module supplies the losses: a
:class:`FaultPlan` is a list of :class:`FaultRule` entries consulted at
four tap points --

* ``XenLoopModule.send_control`` (and the Dom0 discovery announcement
  loop): control-frame **loss / delay / duplication** by message type;
* ``EventChannelSubsys.notify``: **notify loss** (the 1-bit wakeup
  never reaches the peer);
* ``GrantTable.map_grant``: injected **mapping failure** (the
  connector's hypercall fails);
* ``ChannelController`` phase transitions: guest **crash/restart** or
  forced **migration** at a chosen handshake phase;
* ``Bridge.forward``: **bridge-path packet loss** -- a matching frame
  vanishes after the Dom0 forwarding cost is charged, exercising the
  TCP retransmit/congestion machinery (the XenLoop FIFO path never
  crosses the bridge, so it stays lossless -- the paper's asymmetry).

Determinism contract: a plan draws randomness only from its own
:func:`repro.sim.rng.make_rng` generator (and only for rules with
``prob < 1``), and the tap points are pure no-ops when no plan is
installed -- so runs without faults are bit-identical to a build
without this module, and the same seed plus the same plan replays the
same fault schedule bit-identically.

A crash or migrate rule without a ``phase`` is **time-anchored**
instead: it fires ``delay`` seconds after :meth:`FaultPlan.bind`, and
looks its guest up by name only then, so a restarted guest resolves to
its new incarnation.  These rules are the one lifecycle-disruption
schedule: the serving churn cell is a plan of them (migrate a client
out and back, crash a bystander with ``restart_after``), each rule in
its own process, so a long migration delays nothing else.

Install a plan with ``FaultPlan([...], seed=...).install(sim)`` (or
``.bind(cluster)``, which also gives crash-restart/migrate rules the
topology context they need; time-anchored rules need it, so
``install`` alone rejects them).  Recovery-path counters are recorded via
:func:`note_recovered` / :func:`note_degraded` -- cheap no-ops when no
plan is installed -- and surface through ``trace.engine_stats`` and the
``fault_matrix`` scenario sweep.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sim.rng import DEFAULT_SEED, make_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.topology import Cluster
    from repro.xen.domain import Domain

__all__ = [
    "CONTROL_DELAY",
    "CONTROL_DROP",
    "CONTROL_DUP",
    "CRASH",
    "FaultPlan",
    "FaultRule",
    "MAP_FAIL",
    "MIGRATE",
    "NOTIFY_DROP",
    "PKT_LOSS",
    "note_degraded",
    "note_recovered",
    "plan_of",
]

#: drop a matching control frame on the floor.
CONTROL_DROP = "control_drop"
#: deliver a matching control frame late (by ``rule.delay`` seconds).
CONTROL_DELAY = "control_delay"
#: deliver a matching control frame twice (listener retry crossing on
#: the wire, stale frames after recovery).
CONTROL_DUP = "control_dup"
#: lose an event-channel notify (hypercall succeeds, wakeup vanishes).
NOTIFY_DROP = "notify_drop"
#: fail a ``map_grant`` hypercall (connector-side bootstrap abort).
MAP_FAIL = "map_fail"
#: crash the guest abruptly (no shutdown callbacks) at a handshake
#: phase; ``restart_after`` optionally re-creates it from its spec.
CRASH = "crash"
#: live-migrate the guest to ``to_machine`` at a handshake phase.
MIGRATE = "migrate"
#: drop a data-plane frame on the Dom0 bridge's forwarding path.
PKT_LOSS = "pkt_loss"

_CONTROL_KINDS = frozenset((CONTROL_DROP, CONTROL_DELAY, CONTROL_DUP))
_PHASE_KINDS = frozenset((CRASH, MIGRATE))
_ALL_KINDS = _CONTROL_KINDS | _PHASE_KINDS | {NOTIFY_DROP, MAP_FAIL, PKT_LOSS}

#: traffic classes a PKT_LOSS rule's ``message`` field may name (None
#: matches every forwarded frame).
_PKT_CLASSES = frozenset(("tcp", "tcp_ack", "tcp_data", "udp", "icmp"))

#: handshake phases a crash/migrate rule may anchor to.
_PHASES = frozenset(("bootstrapping", "connected"))


@dataclass(frozen=True)
class FaultRule:
    """One composable fault.

    ``kind`` selects the tap point (module constants above).  The match
    fields narrow where it fires: ``message`` is a control-frame class
    name (``"ConnectRequest"``, ``"CreateChannel"``, ``"ChannelAck"``,
    ``"Announce"``) or, for PKT_LOSS, a traffic class (``"tcp"``,
    ``"tcp_ack"`` -- pure ACKs only, ``"tcp_data"`` --
    sequence-consuming segments (payload, SYN or FIN), ``"udp"``,
    ``"icmp"``; None matches every forwarded frame); ``guest`` is the acting guest's name (sender for control
    frames, recipient for announcements, notifier for notify loss,
    mapper for map failures, victim for crash/migrate) or, for
    PKT_LOSS, the *machine* whose bridge drops; ``phase`` anchors
    crash/migrate rules to a handshake phase, and a crash/migrate rule
    without one is time-anchored to :meth:`FaultPlan.bind` (it then
    needs ``guest``, and bind is its one match).

    Firing is gated deterministically: the first ``skip`` matches pass
    through unharmed, at most ``times`` matches fire (None = unlimited),
    and ``prob < 1`` draws from the plan's seeded generator.  ``delay``
    is the added latency for CONTROL_DELAY and the trigger offset for
    crash/migrate (from the phase, or from ``bind`` for a time-anchored
    rule); ``restart_after`` re-creates a crashed guest that
    many seconds later (needs a bound cluster); ``to_machine`` names the
    migration target.
    """

    kind: str
    message: Optional[str] = None
    guest: Optional[str] = None
    phase: Optional[str] = None
    to_machine: Optional[str] = None
    prob: float = 1.0
    times: Optional[int] = 1
    skip: int = 0
    delay: float = 0.0
    restart_after: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], not {self.prob}")
        if self.phase is not None and self.phase not in _PHASES:
            raise ValueError(f"unknown handshake phase {self.phase!r}")
        if self.kind == MIGRATE and self.to_machine is None:
            raise ValueError("a migrate rule needs to_machine")
        if self.kind in _PHASE_KINDS and self.phase is None and self.guest is None:
            raise ValueError(f"a {self.kind} rule needs a phase or a guest")
        if (
            self.kind == PKT_LOSS
            and self.message is not None
            and self.message not in _PKT_CLASSES
        ):
            raise ValueError(
                f"unknown pkt_loss traffic class {self.message!r} "
                f"(one of {sorted(_PKT_CLASSES)})"
            )


class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    Holds the rules, their firing state, and the three outcome counters
    (``injected`` by fault kind, ``recovered`` / ``degraded`` by
    recovery-path name).  A migrate counts as injected only once
    ``live_migrate`` starts.  One plan drives one simulation; install it
    before running traffic.
    """

    def __init__(self, rules=(), seed: int = DEFAULT_SEED):
        self.rules: tuple[FaultRule, ...] = tuple(rules)
        self.seed = seed
        self._rng = make_rng(seed)
        self._seen = [0] * len(self.rules)
        self._fired = [0] * len(self.rules)
        #: fault kind -> injections performed.
        self.injected: Counter = Counter()
        #: recovery path -> times traffic/handshakes recovered through it.
        self.recovered: Counter = Counter()
        #: degradation path -> times a channel gave up (FAILED/aborted).
        self.degraded: Counter = Counter()
        #: topology context for crash-restart / migrate rules.
        self.cluster: Optional["Cluster"] = None
        # Per-tap fast-path gates so a plan with only control rules adds
        # no work to the (hot) notify path, and vice versa.
        kinds = {r.kind for r in self.rules}
        self.has_control_rules = bool(kinds & _CONTROL_KINDS)
        self.has_notify_rules = NOTIFY_DROP in kinds
        self.has_map_rules = MAP_FAIL in kinds
        self.has_phase_rules = any(r.phase is not None for r in self.rules)
        self.has_loss_rules = PKT_LOSS in kinds

    # -- installation ----------------------------------------------------
    def install(self, sim: "Simulator") -> "FaultPlan":
        """Attach this plan to a simulator's tap points and its
        ``faults`` metrics group."""
        if self.cluster is None and any(self._timed(r) for r in self.rules):
            raise ValueError("a time-anchored crash/migrate rule needs bind(cluster)")
        sim.fault_plan = self
        sim.metrics.register("faults", self.snapshot)
        return self

    def bind(self, cluster: "Cluster") -> "FaultPlan":
        """Install into a built cluster and keep the topology context
        (crash-restart and migrate rules need it); time-anchored rules
        start counting their ``delay`` now."""
        timed = [idx for idx, rule in enumerate(self.rules) if self._timed(rule)]
        for idx in timed:
            if self.rules[idx].guest not in cluster.guests:
                raise ValueError(f"no guest {self.rules[idx].guest!r} in this cluster")
        for rule in self.rules:
            if rule.kind == MIGRATE and rule.to_machine not in cluster.machines_by_name:
                raise ValueError(f"no machine {rule.to_machine!r} in this cluster")
        self.cluster = cluster
        self.install(cluster.sim)
        for idx in timed:
            if self._fire(idx):
                self._spawn(cluster.sim, self.rules[idx])
        return self

    @staticmethod
    def _timed(rule: FaultRule) -> bool:
        return rule.kind in _PHASE_KINDS and rule.phase is None

    # -- rule gating -------------------------------------------------------
    def _fire(self, idx: int) -> bool:
        """Deterministic skip/times/prob gating for one matched rule."""
        rule = self.rules[idx]
        self._seen[idx] += 1
        if self._seen[idx] <= rule.skip:
            return False
        if rule.times is not None and self._fired[idx] >= rule.times:
            return False
        if rule.prob < 1.0 and float(self._rng.random()) >= rule.prob:
            return False
        self._fired[idx] += 1
        if rule.kind != MIGRATE:  # counted when live_migrate starts
            self.injected[rule.kind] += 1
        return True

    # -- tap points ----------------------------------------------------
    def on_control(self, guest_name: str, msg_name: str) -> tuple[bool, float, int]:
        """Control-frame tap: returns (deliver, extra_delay, duplicates).

        Matching drop/delay/dup rules compose: any drop wins, delays
        add, each dup rule adds one extra copy.
        """
        deliver, delay, dup = True, 0.0, 0
        for idx, rule in enumerate(self.rules):
            if rule.kind not in _CONTROL_KINDS:
                continue
            if rule.message is not None and rule.message != msg_name:
                continue
            if rule.guest is not None and rule.guest != guest_name:
                continue
            if not self._fire(idx):
                continue
            if rule.kind == CONTROL_DROP:
                deliver = False
            elif rule.kind == CONTROL_DELAY:
                delay += rule.delay
            else:
                dup += 1
        return deliver, delay, dup

    def notify_lost(self, notifier_name: Optional[str]) -> bool:
        """Event-channel tap: True when this notify should vanish."""
        for idx, rule in enumerate(self.rules):
            if rule.kind != NOTIFY_DROP:
                continue
            if rule.guest is not None and rule.guest != notifier_name:
                continue
            if self._fire(idx):
                return True
        return False

    def pkt_lost(self, machine_name: Optional[str], packet) -> bool:
        """Bridge-forwarding tap: True when this frame should vanish.

        ``machine_name`` is the machine whose Dom0 bridge is forwarding
        (matched against ``rule.guest``); ``rule.message`` narrows to a
        traffic class (see :class:`FaultRule`)."""
        for idx, rule in enumerate(self.rules):
            if rule.kind != PKT_LOSS:
                continue
            if rule.guest is not None and rule.guest != machine_name:
                continue
            if rule.message is not None and not _pkt_in_class(packet, rule.message):
                continue
            if self._fire(idx):
                return True
        return False

    def map_fails(self, mapper_name: Optional[str]) -> bool:
        """Grant-table tap: True when this map_grant should fail."""
        for idx, rule in enumerate(self.rules):
            if rule.kind != MAP_FAIL:
                continue
            if rule.guest is not None and rule.guest != mapper_name:
                continue
            if self._fire(idx):
                return True
        return False

    def on_phase(self, guest: "Domain", phase: str) -> None:
        """Handshake-phase tap: schedule crash/migrate rules anchored to
        ``phase`` as separate processes (so the handshake generator that
        triggered them is not torn down from under itself)."""
        for idx, rule in enumerate(self.rules):
            if rule.phase != phase or rule.kind not in _PHASE_KINDS:
                continue
            if rule.guest is not None and rule.guest != guest.name:
                continue
            if self._fire(idx):
                self._spawn(guest.sim, rule, guest)

    def _spawn(self, sim: "Simulator", rule: FaultRule, guest: Optional["Domain"] = None) -> None:
        """One process per fired crash/migrate rule; ``guest=None`` (a
        time-anchored rule) resolves the victim by name when it fires."""
        runner = self._crash_runner if rule.kind == CRASH else self._migrate_runner
        name = guest.name if guest is not None else rule.guest
        sim.process(runner(sim, rule, guest), name=f"fault-{rule.kind}-{name}")

    def _crash_runner(self, sim: "Simulator", rule: FaultRule, guest: Optional["Domain"]):
        yield sim.timeout(rule.delay)
        if guest is None:
            guest = self.cluster.guests[rule.guest]
        guest.crash()
        if rule.restart_after is not None and self.cluster is not None:
            yield sim.timeout(rule.restart_after)
            self.cluster.restart_guest(guest.name)
            self.recovered["guest_restart"] += 1

    def _migrate_runner(self, sim: "Simulator", rule: FaultRule, guest: Optional["Domain"]):
        from repro.xen.migration import live_migrate

        yield sim.timeout(rule.delay)
        if self.cluster is None:
            return
        if guest is None:
            guest = self.cluster.guests[rule.guest]
        dst = self.cluster.machines_by_name.get(rule.to_machine)
        if dst is None or dst is guest.machine or not guest.alive:
            return
        self.injected[MIGRATE] += 1
        yield from live_migrate(guest, dst)

    # -- reporting -------------------------------------------------------
    def snapshot(self) -> dict:
        """Counters snapshot (the simulator's ``faults`` metrics group)."""
        return {
            "rules": len(self.rules),
            "injected": dict(sorted(self.injected.items())),
            "recovered": dict(sorted(self.recovered.items())),
            "degraded": dict(sorted(self.degraded.items())),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FaultPlan rules={len(self.rules)} seed={self.seed} "
            f"injected={sum(self.injected.values())}>"
        )


# ---------------------------------------------------------------------------
# Module-level helpers: cheap no-ops when no plan is installed, so the
# control plane can record recovery outcomes unconditionally.
# ---------------------------------------------------------------------------

def plan_of(sim) -> Optional[FaultPlan]:
    """The plan installed on ``sim``, or None."""
    return sim.fault_plan


def _pkt_in_class(packet, pkt_class: str) -> bool:
    """Does ``packet`` belong to PKT_LOSS traffic class ``pkt_class``?"""
    from repro.net.ethernet import IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP

    ip = packet.ip
    if ip is None:
        return False
    if pkt_class == "udp":
        return ip.proto == IPPROTO_UDP
    if pkt_class == "icmp":
        return ip.proto == IPPROTO_ICMP
    if ip.proto != IPPROTO_TCP:
        return False
    if pkt_class == "tcp":
        return True
    hdr = packet.l4
    carries = bool(packet.payload) or (hdr is not None and hdr.flags & 0x03)  # SYN|FIN
    return carries if pkt_class == "tcp_data" else not carries


def note_recovered(sim, path: str, n: int = 1) -> None:
    """Record that traffic/handshake recovered via ``path``."""
    plan = sim.fault_plan
    if plan is not None:
        plan.recovered[path] += n


def note_degraded(sim, path: str, n: int = 1) -> None:
    """Record that a channel gave up via ``path`` (clean failure)."""
    plan = sim.fault_plan
    if plan is not None:
        plan.degraded[path] += n
