"""Netfilter-style hook chains.

XenLoop's whole transparency story rests on this mechanism (paper
Sect. 3.1): the module registers a hook *beneath the network layer*
(POST_ROUTING) and steals packets destined to co-resident VMs, while
applications and the rest of the stack remain unmodified.

Hook functions are **generator functions** so they can charge CPU and
perform channel operations synchronously in the sender's context::

    def hook(packet, dev):
        yield node.exec(cost)
        return Verdict.STOLEN

They must return a :class:`Verdict`; returning ``None`` is treated as
ACCEPT.
"""

from __future__ import annotations

import enum
from typing import Callable

__all__ = ["HookPoint", "NetfilterRegistry", "Verdict"]


class HookPoint(enum.Enum):
    #: outgoing packets, after routing, before fragmentation -- where
    #: the XenLoop module hooks (Linux NF_INET_POST_ROUTING).
    """Where in the stack a hook chain runs."""
    POST_ROUTING = "post_routing"
    #: incoming packets before IP processing.
    PRE_ROUTING = "pre_routing"

    # Members are singletons, so identity hashing is exact, and it runs
    # in C: Enum.__hash__ hashes the name in Python on every chain lookup.
    __hash__ = object.__hash__


class Verdict(enum.Enum):
    """A hook's decision about the packet."""
    ACCEPT = "accept"
    #: the hook took ownership of the packet (XenLoop channel path).
    STOLEN = "stolen"
    DROP = "drop"


class NetfilterRegistry:
    """Per-stack hook registry, ordered by priority (lower runs first)."""

    def __init__(self):
        self._hooks: dict[HookPoint, list[tuple[int, Callable]]] = {p: [] for p in HookPoint}

    def register(self, point: HookPoint, fn: Callable, priority: int = 0) -> None:
        """Add a generator hook at ``point`` (lower priority runs first)."""
        chain = self._hooks[point]
        chain.append((priority, fn))
        chain.sort(key=lambda pair: pair[0])

    def unregister(self, point: HookPoint, fn: Callable) -> None:
        """Remove a previously registered hook (matched by equality)."""
        chain = self._hooks[point]
        for i, (_prio, hooked) in enumerate(chain):
            # == (not `is`): bound methods are recreated on each attribute
            # access but compare equal for the same object+function.
            if hooked == fn:
                del chain[i]
                return
        raise KeyError(f"hook {fn!r} not registered at {point}")

    def count(self, point: HookPoint) -> int:
        """Number of hooks registered at ``point``."""
        return len(self._hooks[point])

    def active(self, point: HookPoint) -> bool:
        """True when at least one hook is registered at ``point``.

        Lets per-frame call sites skip :meth:`run` entirely (generator
        creation plus a defensive chain copy) when the chain is empty --
        the common case for PRE_ROUTING.
        """
        return bool(self._hooks[point])

    def run(self, point: HookPoint, packet, dev):
        """Run the chain (generator).  Returns the final verdict."""
        for _prio, fn in list(self._hooks[point]):
            verdict = yield from fn(packet, dev)
            if verdict is None:
                verdict = Verdict.ACCEPT
            if verdict is not Verdict.ACCEPT:
                return verdict
        return Verdict.ACCEPT
