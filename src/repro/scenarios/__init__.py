"""Evaluation topologies from the paper, as declarative specs.

The package splits two concerns:

* :mod:`repro.scenarios.registry` -- the ``@scenario`` decorator and
  the ``SCENARIO_BUILDERS`` registry that ``build()``/the CLI consume.
* :mod:`repro.scenarios.paper` (and the congestion, serving and
  fault-matrix modules) -- the builders themselves, each a thin
  :class:`repro.topology.ClusterSpec` spec returning a
  :class:`repro.topology.Cluster`.

Every builder except ``fault_matrix`` and every cell runner is
re-exported here.  ``scenarios.fault_matrix`` is the submodule; its
builder is reached as ``build("fault_matrix", ...)``.
"""

from __future__ import annotations

from repro.calibration import DEFAULT_COSTS, CostModel
from repro.scenarios.registry import (
    SCENARIO_BUILDERS,
    build,
    scenario,
    scenario_names,
)

# Importing the builders registers them (must come after registry).
from repro.scenarios.congestion import (
    run_fairness_cell,
    run_incast_cell,
    xenloop_fairness,
    xenloop_incast,
)
from repro.scenarios.fault_matrix import run_fault_matrix
from repro.scenarios.serving import run_serving_cell, xenloop_serving
from repro.scenarios.paper import (
    inter_machine,
    migration_pair,
    native_loopback,
    netfront_netback,
    xenloop,
    xenloop_mesh,
)

__all__ = [
    "CostModel",
    "DEFAULT_COSTS",
    "SCENARIO_BUILDERS",
    "build",
    "inter_machine",
    "migration_pair",
    "native_loopback",
    "netfront_netback",
    "run_fairness_cell",
    "run_fault_matrix",
    "run_incast_cell",
    "run_serving_cell",
    "scenario",
    "scenario_names",
    "xenloop",
    "xenloop_fairness",
    "xenloop_incast",
    "xenloop_mesh",
    "xenloop_serving",
]
