"""Checkpoints of simulator state: capture, persist, replay.

A snapshot pins down exactly where a simulation stands so a failing
fault cell or a surprising bench result can be replayed bit for bit
later, in another process or on another day.

The engine's processes are live Python generators, which CPython cannot
pickle or deep-copy, so a snapshot stores the *recipe* that built the
simulator rather than the live objects:

* :meth:`SimSnapshot.capture` walks every subsystem's
  ``snapshot_state()``, plus the simulator's metrics registry, into one
  canonical-JSON tree with a sha256 digest.  Capturing is read-only, so
  the cluster keeps running exactly as it would have.
* :meth:`~SimSnapshot.save` / :meth:`~SimSnapshot.load` persist a
  versioned JSON manifest holding the build recipe (registered
  scenario name and arguments, cost model, seed, warm steps), the state
  tree and its digest.
* :meth:`~SimSnapshot.restore` re-executes the recipe -- deterministic
  replay -- then re-captures and verifies the digest, so code drift or
  nondeterminism since the save surfaces as :class:`SnapshotMismatch`
  instead of silently different results.

Determinism contract: a restored cluster, run with the same seed and
workload, is bit-identical to one that was built and continued in one
process -- pinned against the golden counters in
``tests/integration/test_snapshot_fork.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Optional

__all__ = [
    "SNAPSHOT_FORMAT",
    "SimSnapshot",
    "SnapshotError",
    "SnapshotMismatch",
    "build_from_recipe",
    "capture_state",
    "scenario_recipe",
    "state_digest",
]

#: manifest format version; bump on any change to the captured tree's
#: shape so a stale manifest fails loudly instead of digest-mismatching.
SNAPSHOT_FORMAT = 11

class SnapshotError(RuntimeError):
    """Base error for the snapshot subsystem."""


class SnapshotMismatch(SnapshotError):
    """Deterministic replay of the recipe reached a different state."""


# ---------------------------------------------------------------------------
# State capture
# ---------------------------------------------------------------------------

def _jsonable(value: Any) -> Any:
    """Normalize a captured tree to plain JSON types (str keys, no
    tuples/sets) so digests are canonical."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def capture_state(cluster) -> dict:
    """Walk a built :class:`~repro.topology.Cluster` and collect every
    subsystem's ``snapshot_state()`` into one plain tree.

    Strictly read-only: nothing is scheduled, run, or mutated, so
    capturing is safe at any quiescent point (between ``run`` calls)
    and the cluster continues exactly as it would have uncaptured.
    Native hosts have no domid, netfront or hypervisor, so those
    per-node keys are read with defaults.
    """
    state: dict = {
        "sim": cluster.sim.snapshot_state(),
        "metrics": cluster.sim.metrics.snapshot(),
    }

    gstate: dict = {}
    for name, guest in cluster.guests.items():
        entry: dict = {
            "alive": getattr(guest, "alive", True),
            "domid": getattr(guest, "domid", None),
        }
        stack = getattr(guest, "stack", None)
        if stack is not None:
            entry["stack"] = stack.snapshot_state()
        netfront = getattr(guest, "netfront", None)
        if netfront is not None:
            entry["netfront"] = {
                "suspended": netfront.suspended,
                "tx_ring": (
                    netfront.tx_ring.snapshot_state() if netfront.tx_ring else None
                ),
                "tx_packets": netfront.tx_packets,
                "rx_packets": netfront.rx_packets,
                "limbo": len(netfront._limbo),
                "txq": len(netfront._txq),
            }
        gstate[name] = entry
    state["guests"] = gstate

    state["modules"] = {
        name: module.snapshot_state() for name, module in cluster.modules.items()
    }

    mstate: dict = {}
    for machine in cluster.machines:
        entry = {}
        hyper = getattr(machine, "hypervisor", None)
        if hyper is not None:
            entry["grant_tables"] = {
                str(domid): table.snapshot_state()
                for domid, table in hyper.grant_tables.items()
            }
            entry["evtchn"] = hyper.evtchn.snapshot_state()
        xenstore = getattr(machine, "xenstore", None)
        if xenstore is not None:
            entry["xenstore"] = xenstore.snapshot_state()
        mstate[machine.name] = entry
    state["machines"] = mstate

    state["discoveries"] = [d.snapshot_state() for d in cluster.discoveries]

    return _jsonable(state)


def state_digest(state: dict) -> str:
    """sha256 over the canonical JSON encoding of a captured tree."""
    blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _first_divergence(a: Any, b: Any, path: str = "") -> str:
    """Dotted path of the first differing leaf (digest-mismatch hint)."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key} (missing on one side)"
            if a[key] != b[key]:
                return _first_divergence(a[key], b[key], f"{path}.{key}")
        return path or "<equal>"
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path} (length {len(a)} vs {len(b)})"
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return _first_divergence(x, y, f"{path}[{i}]")
        return path or "<equal>"
    return f"{path} ({a!r} vs {b!r})"


# ---------------------------------------------------------------------------
# Recipes: how to rebuild the simulator this snapshot describes
# ---------------------------------------------------------------------------

def scenario_recipe(
    name: str,
    costs=None,
    seed: int = 0,
    warm: Optional[dict] = None,
    kwargs: Optional[dict] = None,
) -> dict:
    """Recipe for a registered scenario built with ``kwargs``,
    optionally warmed up.

    ``warm`` is falsy (no warmup) or ``{"max_wait": <seconds>}``.
    """
    recipe: dict = {"kind": "scenario", "name": name, "seed": seed}
    if costs is not None:
        recipe["costs"] = dataclasses.asdict(costs)
    if warm:
        recipe["warm"] = dict(warm)
    if kwargs:
        recipe["kwargs"] = dict(kwargs)
    return recipe


def build_from_recipe(recipe: dict):
    """Deterministically re-execute a recipe into a live cluster."""
    from repro import scenarios
    from repro.calibration import DEFAULT_COSTS, CostModel

    if recipe.get("kind") != "scenario":
        raise SnapshotError(f"unknown recipe kind {recipe.get('kind')!r}")
    costs = CostModel(**recipe["costs"]) if recipe.get("costs") else DEFAULT_COSTS
    cluster = scenarios.build(
        recipe["name"], costs=costs, seed=recipe.get("seed", 0), **(recipe.get("kwargs") or {})
    )
    warm = recipe.get("warm")
    if warm:
        cluster.warmup(max_wait=float(warm.get("max_wait", 30.0)))
    return cluster


# ---------------------------------------------------------------------------
# The snapshot object
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class SimSnapshot:
    """A captured simulator: state tree + digest + rebuild recipe.

    ``cluster`` is the live cluster the snapshot was captured from; a
    snapshot loaded from disk has none until :meth:`restore` replays
    the recipe (and verifies the digest).
    """

    state: dict
    digest: str
    sim_time: float
    event_count: int
    seq: int
    recipe: Optional[dict] = None
    label: str = ""
    format: int = SNAPSHOT_FORMAT
    cluster: Any = dataclasses.field(default=None, repr=False, compare=False)

    # -- capture ---------------------------------------------------------
    @classmethod
    def capture(cls, cluster, recipe: Optional[dict] = None, label: str = "") -> "SimSnapshot":
        """Capture a live cluster (read-only; the cluster keeps running)."""
        state = capture_state(cluster)
        sim = cluster.sim
        return cls(
            state=state,
            digest=state_digest(state),
            sim_time=sim.now,
            event_count=sim.event_count,
            seq=sim._seq,
            recipe=recipe,
            label=label,
            cluster=cluster,
        )

    # -- persistence -----------------------------------------------------
    def manifest(self) -> dict:
        return {
            "format": self.format,
            "label": self.label,
            "recipe": self.recipe,
            "sim_time": self.sim_time,
            "event_count": self.event_count,
            "seq": self.seq,
            "digest": self.digest,
            "state": self.state,
        }

    def save(self, path) -> None:
        """Write the versioned JSON manifest (no live state; restore
        replays the recipe)."""
        with open(path, "w") as fh:
            json.dump(self.manifest(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SimSnapshot":
        with open(path) as fh:
            doc = json.load(fh)
        fmt = doc.get("format")
        if fmt != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"manifest format {fmt!r} != supported {SNAPSHOT_FORMAT}"
            )
        return cls(
            state=doc["state"],
            digest=doc["digest"],
            sim_time=doc["sim_time"],
            event_count=doc["event_count"],
            seq=doc["seq"],
            recipe=doc.get("recipe"),
            label=doc.get("label", ""),
            format=fmt,
        )

    def restore(self):
        """Rebuild the simulator by deterministic replay of the recipe,
        verify the digest, and bind the result as the live cluster.

        A digest mismatch means the code or its determinism drifted
        since the save -- the first differing leaf is named in the
        error so the drift is debuggable, not just detectable.
        """
        if self.recipe is None:
            raise SnapshotError("snapshot has no recipe; cannot restore")
        cluster = build_from_recipe(self.recipe)
        fresh = capture_state(cluster)
        fresh_digest = state_digest(fresh)
        if fresh_digest != self.digest:
            raise SnapshotMismatch(
                "replayed state diverges from the manifest at "
                f"{_first_divergence(self.state, fresh)} "
                f"(digest {fresh_digest[:12]} != {self.digest[:12]})"
            )
        self.cluster = cluster
        return cluster

    # -- inspection ------------------------------------------------------
    def inspect(self) -> str:
        """Human-readable summary of the captured state tree."""
        sim = self.state.get("sim", {})
        lines = [
            f"SimSnapshot format={self.format}"
            + (f" label={self.label!r}" if self.label else ""),
            f"  recipe: {json.dumps(self.recipe) if self.recipe else '(none: live-only)'}",
            f"  engine: t={self.sim_time:.6f}s  events={self.event_count:,}  "
            f"seq={self.seq:,}  calendar={sim.get('queue_len', 0)}+"
            f"{sim.get('ready_len', 0)} pending",
            f"  digest: {self.digest}",
        ]
        for name, guest in sorted(self.state.get("guests", {}).items()):
            stack = guest.get("stack") or {}
            lines.append(
                f"  guest {name}: domid={guest.get('domid')} "
                f"alive={guest.get('alive')} "
                f"arp={len((stack.get('arp') or {}).get('table', {}))} "
                f"udp_socks={len(stack.get('udp_sockets', {}))}"
            )
        for name, module in sorted(self.state.get("modules", {}).items()):
            control = module.get("control", {})
            channels = control.get("channels", {})
            states = ",".join(
                f"{mac}:{ch['ctrl']['fsm']['state']}" for mac, ch in sorted(channels.items())
            )
            lines.append(
                f"  module {name}: mapping={len(control.get('mapping', {}))} "
                f"channels=[{states or '-'}] "
                f"via_channel={module.get('pkts_via_channel', 0)}"
            )
        for name, machine in sorted(self.state.get("machines", {}).items()):
            grants = sum(
                len(t.get("entries", {}))
                for t in machine.get("grant_tables", {}).values()
            )
            ports = len((machine.get("evtchn") or {}).get("ports", {}))
            lines.append(f"  machine {name}: grants={grants} evtchn_ports={ports}")
        return "\n".join(lines)
