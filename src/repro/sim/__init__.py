"""Discrete-event simulation substrate.

Everything in the reproduction runs on this engine: Xen domains, network
stacks, drivers, the XenLoop module, and the benchmark workloads are all
:class:`~repro.sim.engine.Process` instances scheduled by a single
:class:`~repro.sim.engine.Simulator`.

The engine follows the classic event-calendar design (a binary heap of
timestamped events) with SimPy-style generator processes: a process is a
Python generator that *yields* events; the engine resumes the generator
when the yielded event fires.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import CPUCores, Store
from repro.sim.stats import LogHistogram, TimeSeries

__all__ = [
    "AllOf",
    "AnyOf",
    "CPUCores",
    "Event",
    "LogHistogram",
    "Process",
    "SimulationError",
    "Simulator",
    "Store",
    "TimeSeries",
    "Timeout",
]
