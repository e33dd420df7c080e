"""Auto-registration of scenario builders.

Every builder decorated with :func:`scenario` lands in
``SCENARIO_BUILDERS`` under its own name at definition time, so the
registry can never drift from the set of builders (the pre-registry
bug: ``xenloop_mesh`` and ``migration_pair`` existed but ``build()``
and the CLI rejected them).  A builder's description is the first line
of its docstring.  ``cli.py``, ``report.py`` and ``trace.py`` all
consume this registry rather than private name lists.
"""

from __future__ import annotations

from typing import Callable

from repro.calibration import DEFAULT_COSTS, CostModel
from repro.topology import Cluster

__all__ = [
    "SCENARIO_BUILDERS",
    "build",
    "scenario",
    "scenario_names",
]

#: name -> builder callable (the decorator keeps this in sync).
SCENARIO_BUILDERS: dict[str, Callable[..., Cluster]] = {}


def scenario(fn: Callable[..., Cluster]) -> Callable[..., Cluster]:
    """Register ``fn`` as a scenario builder under its own name."""
    if fn.__name__ in SCENARIO_BUILDERS:
        raise ValueError(f"scenario {fn.__name__!r} registered twice")
    SCENARIO_BUILDERS[fn.__name__] = fn
    return fn


def scenario_names() -> list[str]:
    """All registered scenario names, in registration order."""
    return list(SCENARIO_BUILDERS)


def build(name: str, costs: CostModel = DEFAULT_COSTS, **kwargs) -> Cluster:
    """Build a scenario by name (see SCENARIO_BUILDERS).

    ``costs`` is forwarded by keyword so builders with leading
    positional parameters of their own (``xenloop_mesh(n_guests, ...)``)
    compose with per-scenario ``kwargs``.
    """
    try:
        builder = SCENARIO_BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; choose from {sorted(SCENARIO_BUILDERS)}")
    return builder(costs=costs, **kwargs)
