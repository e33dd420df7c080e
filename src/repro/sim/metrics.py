"""One counter mechanism for every subsystem.

:class:`Counters` is a named set of integer counters that hot paths
bump as plain attributes (``WIRE_STATS.bytes_packed += n``).

:class:`Metrics` is the per-simulator registry (``sim.metrics``).  A
subsystem registers a zero-argument callable returning a flat dict of
counters under a group name, once, when it is built; a snapshot sums
each group's sources key by key.  :func:`repro.trace.engine_stats` and
:func:`repro.report.format_engine_stats` walk the snapshot generically,
so a new subsystem needs one ``register`` call and no other edit.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["Counters", "Metrics"]


class Counters:
    """A named set of integer counters, all starting at zero.

    Each counter is a plain instance attribute.  Nothing here touches
    ``__dict__`` directly: that would turn CPython's inline attribute
    values into a real dict and make every ``+=`` slower.
    """

    def __init__(self, *names: str) -> None:
        self._names = names
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        for name in self._names:
            setattr(self, name, 0)

    def snapshot(self) -> dict:
        """The counters as a plain dict, in declaration order."""
        return {name: getattr(self, name) for name in self._names}


class Metrics:
    """Per-simulator registry of counter sources, grouped by name."""

    def __init__(self) -> None:
        self._groups: dict[str, list[Callable[[], dict]]] = {}

    def register(self, group: str, source: Callable[[], dict]) -> None:
        """Add ``source`` (called with no arguments at snapshot time,
        returning a dict of counters) to ``group``."""
        self._groups.setdefault(group, []).append(source)

    def snapshot(self) -> dict:
        """``{group: counters}`` with each group's sources summed key by
        key, groups in first-registration order.  A group exists only
        once something has registered into it; a single-source group
        (the fault plan) may hold nested dicts, which are passed through."""
        out = {}
        for group, sources in self._groups.items():
            total: dict = {}
            for source in sources:
                for key, value in source().items():
                    total[key] = total[key] + value if key in total else value
            out[group] = total
        return out
