"""Node: anything that runs software and owns a network stack.

A ``Node`` is a native host or a Xen domain (``repro.xen.domain.Domain``
subclasses it).  It knows how to charge CPU time to the right schedule
entity on the right physical machine, and it owns the processes that
make up its "kernel" and applications.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Optional

from repro.calibration import CostModel
from repro.sim.engine import Process, Simulator
from repro.sim.resources import CPUCores

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.stack import NetworkStack

__all__ = ["Node"]


class Node:
    """An OS instance: CPU accounting + process spawning + a stack slot."""

    def __init__(
        self,
        sim: Simulator,
        cpus: CPUCores,
        costs: CostModel,
        name: str,
        sched_key: Optional[Any] = None,
    ):
        self.sim = sim
        self.cpus = cpus
        self.costs = costs
        self.name = name
        #: key under which this node's work is scheduled on the cores;
        #: all of Dom0's work shares one key, each guest has its own.
        self.sched_key = sched_key if sched_key is not None else name
        self.stack: "NetworkStack | None" = None
        self.alive = True
        self._bind_cpus(cpus)

    def _bind_cpus(self, cpus: CPUCores) -> None:
        """(Re)bind :meth:`exec` as a partial over ``cpus.charge``.

        ``exec`` is the single hottest call in the simulation; the
        C-level partial skips one Python frame per CPU charge.  Must be
        re-called whenever the node moves to different cores (migration
        -- see ``Machine.adopt_domain``).
        """
        self.cpus = cpus
        self.exec = partial(cpus.charge, self.sched_key)

    def exec(self, cost: float) -> Any:  # overridden per-instance by _bind_cpus
        """Charge ``cost`` seconds of CPU to this node.

        Yield the result directly (``yield node.exec(cost)``): the
        running process resumes when the work is done.  See
        :meth:`CPUCores.charge`.
        """
        return self.cpus.charge(self.sched_key, cost)

    def spawn(self, generator, name: str = "") -> Process:
        """Run a generator as a process belonging to this node."""
        return self.sim.process(generator, name=f"{self.name}:{name or 'proc'}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.name}>"
