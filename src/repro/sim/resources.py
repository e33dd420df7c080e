"""Shared-resource primitives built on the event engine.

* :class:`WaitQueue` -- the one way a process parks until something
  wakes it: FIFO waiters woken one at a time, all at once, or failed.
* :class:`Store` -- FIFO item buffer with blocking get (and optional
  bounded capacity with blocking put).
* :class:`CPUCores` -- the physical-CPU model: ``n`` identical cores
  executing work segments on behalf of *domains*, charging a
  domain-switch penalty whenever a core switches from one domain to
  another.  This penalty is how the simulation reproduces the
  TLB/cache-miss overhead the paper attributes to excessive switching
  between guest domains and the driver domain (Sect. 2).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, Hashable, Optional

from repro.sim.engine import IDLE, PENDING, PROCESSED, TRIGGERED, Event, Simulator

__all__ = ["CPUCores", "Store", "WaitQueue"]

_INF = float("inf")


class WaitQueue:
    """Processes parked until a waker releases them, oldest first.

    Each wake is exactly one ``Event.succeed()``/``fail()``; a waiter
    something else already triggered (an ``any_of`` loser) is skipped.
    As a worker's kick it holds one sleeper, and a wake with nobody
    parked does nothing.  ``len()`` counts parked waiters.
    """

    __slots__ = ("sim", "_waiters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._waiters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._waiters)

    def wait(self, name: str = "") -> Event:
        """Park: the returned event fires when a wake reaches it."""
        ev = Event(self.sim, name)
        self._waiters.append(ev)
        return ev

    def wake_one(self, value: Any = None) -> bool:
        """Succeed the oldest untriggered waiter; False if none."""
        waiters = self._waiters
        while waiters:
            ev = waiters.popleft()
            if ev._state == PENDING:
                ev.succeed(value)
                return True
        return False

    def wake_all(self) -> None:
        """Succeed every untriggered waiter."""
        while self.wake_one():
            pass

    def fail_all(self, exc: BaseException) -> None:
        """Fail every untriggered waiter with ``exc``."""
        waiters, self._waiters = self._waiters, deque()
        for ev in waiters:
            if ev._state == PENDING:
                ev.fail(exc)


class Store:
    """FIFO item buffer.

    ``put`` appends an item; when ``capacity`` is bounded and the buffer
    is full, the returned event fires only once space frees up.  ``get``
    returns an event that fires with the oldest item.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters = WaitQueue(sim)
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Append an item; blocks (event pending) while a bounded store is
        full.  A put that completes at once returns its event processed."""
        ev = Event(self.sim, "store.put")
        if not self._getters.wake_one(item):  # else: handed to the oldest getter
            if self.capacity is not None and len(self.items) >= self.capacity:
                self._putters.append((ev, item))
                return ev
            self.items.append(item)
        ev._state = PROCESSED
        return ev

    def get(self) -> Event:
        """Take the oldest item; the event fires when one is available."""
        if not self.items:
            return self._getters.wait("store.get")
        ev = Event(self.sim, "store.get").succeed(self.items.popleft())
        self._admit_putter()
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns ``(found, item)``."""
        if self.items:
            item = self.items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def _admit_putter(self) -> None:
        if self._putters:
            ev, item = self._putters.popleft()
            self.items.append(item)
            ev.succeed()


# What a finished segment does next (``_Segment.kind``).
_RESUME = 0  # resume the process that charged it (CPUCores.charge)
_SUCCEED = 1  # succeed a done Event (CPUCores.execute)
_CALL = 2  # call a function (CPUCores.execute_call)


class _Core:
    __slots__ = ("cpus", "index", "busy", "last_domain")

    def __init__(self, cpus: "CPUCores", index: int):
        self.cpus = cpus
        self.index = index
        self.busy = False
        self.last_domain: Optional[Hashable] = None


class _Segment:
    """One CPU work segment on the calendar, and what follows it.

    Ending the segment frees its core, decrements the domain's running
    count (``st`` is the domain's ``[running, limit, queue]`` record,
    see :attr:`CPUCores._dom`) and admits the next queued segment.  Then,
    by ``kind``:

    * ``_SUCCEED`` triggers the done Event ``then`` on the ready deque;
    * ``_CALL`` calls ``then()``: no Event and one calendar entry in all;
    * ``_RESUME`` resumes the process ``then``.  The record is that
      process's own (``Process._charge``) and is reused for every charge.
      It takes the sequence number the done Event would have taken and
      resumes the process right here, counting one event, when nothing
      else is due at this instant; otherwise it queues itself on the
      ready deque as that Event would have.  ``_state`` follows the done
      Event's lifecycle -- PENDING (queued or running), TRIGGERED (on the
      ready deque), PROCESSED (ended while its process waited on
      something else) -- plus IDLE once a yield has consumed it, the
      only state in which :meth:`CPUCores.charge` reuses it.
    """

    __slots__ = ("core", "st", "kind", "then", "_state")

    def __init__(self, kind: int, then: Any):
        self.kind = kind
        self.then = then
        self._state = IDLE

    def _process(self) -> None:
        if self._state != TRIGGERED:  # else: the done bounce, off the ready deque
            core = self.core
            core.busy = False
            self.st[0] -= 1
            cpus = core.cpus
            if cpus._waiting:
                cpus._admit()
            sim = cpus.sim
            kind = self.kind
            if kind != _RESUME:
                if kind == _CALL:
                    self.then()
                    return
                # ``then`` is engine-owned and still PENDING by
                # construction, so the succeed() re-trigger guard is skipped.
                done = self.then
                done._state = TRIGGERED
                sim._seq += 1
                sim._ready.append((sim.now, sim._seq, done))
                return
            sim._seq += 1
            heap = sim._queue
            if sim._ready or (heap and heap[0][0] <= sim.now):
                self._state = TRIGGERED
                sim._ready.append((sim.now, sim._seq, self))
                return
            sim._event_count += 1  # the bounce, taken in place
        proc = self.then
        if proc._waiting_on is self:
            self._state = IDLE
            proc._waiting_on = None
            proc._step(None, True)
        else:  # it charged twice before one yield and waits on the other first
            self._state = PROCESSED


class CPUCores:
    """``n`` identical cores shared by simulation *domains*.

    Work is submitted with :meth:`charge` (from a process),
    :meth:`execute` (returns an Event) or :meth:`execute_call` (calls a
    function); all three schedule a segment the same way.  Scheduling is
    FIFO with one twist: a free core that last ran the requesting domain
    is preferred, and when no such core exists the segment pays
    ``switch_penalty`` extra -- modelling the TLB/cache refill cost of a
    domain switch.

    This is intentionally simpler than Xen's credit scheduler; the
    quantity that matters for the paper's evaluation is the *count and
    cost of domain switches* on the data path, which this captures.
    """

    def __init__(self, sim: Simulator, n_cores: int, switch_penalty: float = 0.0):
        if n_cores < 1:
            raise ValueError("need at least one core")
        if not 0.0 <= switch_penalty < _INF:
            raise ValueError(f"switch penalty must be finite and >= 0, got {switch_penalty}")
        self.sim = sim
        self.cores = [_Core(self, i) for i in range(n_cores)]
        self.switch_penalty = switch_penalty
        #: per-domain accounting: domain -> ``[running, limit, queue]``
        #: where ``running`` is the count of in-flight segments, ``limit``
        #: the vCPU cap (None = all cores; guests in the paper's testbed
        #: are 1-vCPU, Dom0 and native hosts get all cores) and ``queue``
        #: the domain's waiting segments, ``(ticket, seg, domain, cost)``
        #: in submission order.  One dict lookup on the hottest path;
        #: segments carry the list.
        self._dom: dict[Hashable, list] = {}
        #: the records of domains with a non-empty queue, by domain.
        self._waiting: dict[Hashable, list] = {}
        #: submission tickets of queued segments (global FIFO order).
        self._ticket = 0
        self.total_busy_time = 0.0
        self.total_switches = 0

    def set_vcpu_limit(self, domain: Hashable, n: int) -> None:
        """Cap a domain's concurrent segments (its vCPU count)."""
        if n < 1:
            raise ValueError("vCPU limit must be >= 1")
        st = self._dom.get(domain)
        if st is None:
            self._dom[domain] = [0, n, deque()]
        else:
            st[1] = n

    @property
    def _vcpu_limit(self) -> dict[Hashable, int]:
        """Per-domain vCPU caps as a plain dict (introspection/tests)."""
        return {d: st[1] for d, st in self._dom.items() if st[1] is not None}

    def charge(self, domain: Hashable, cost: float) -> Any:
        """Run ``cost`` seconds of work for ``domain`` on behalf of the
        running process, which must yield the result directly.

        The result is the process's reusable charge record, good for one
        yield.  Outside any process, or while that record is still in
        flight (two charges before one yield), this is :meth:`execute`
        and the result an Event.
        """
        proc = self.sim.active_process
        if proc is not None:
            seg = proc._charge
            if seg is None:
                seg = proc._charge = _Segment(_RESUME, proc)
            if seg._state == IDLE:
                self._submit(seg, domain, cost)
                seg._state = PENDING
                return seg
        return self.execute(domain, cost)

    def execute(self, domain: Hashable, cost: float) -> Event:
        """Run ``cost`` seconds of work for ``domain``; event fires at end."""
        done = Event(self.sim, "cpu")
        self._submit(_Segment(_SUCCEED, done), domain, cost)
        return done

    def execute_call(self, domain: Hashable, cost: float, fn) -> None:
        """Run ``cost`` seconds of work for ``domain``; call ``fn()`` at end.

        The fire-and-forget variant of :meth:`execute` for continuations
        nobody waits on (event-channel upcall handlers): the whole
        segment is one calendar entry and allocates no Event.
        """
        self._submit(_Segment(_CALL, fn), domain, cost)

    @property
    def queued(self) -> int:
        """Work segments waiting for a core or a vCPU slot."""
        return sum(len(st[2]) for st in self._waiting.values())

    def _submit(self, seg: _Segment, domain: Hashable, cost: float) -> None:
        """Validate ``cost``, then start ``seg`` on a free core, or queue
        it behind its vCPU cap or busy cores.  The one entry point for
        every segment."""
        if not 0.0 <= cost < _INF:
            raise ValueError(f"work cost must be finite and >= 0, got {cost}")
        st = self._dom.get(domain)
        if st is None:
            st = self._dom[domain] = [0, None, deque()]
        seg.st = st
        if (st[1] is None or st[0] < st[1]) and self._start(seg, domain, cost):
            return
        self._ticket += 1
        queue = st[2]
        if not queue:
            self._waiting[domain] = st
        queue.append((self._ticket, seg, domain, cost))

    def _start(self, seg: _Segment, domain: Hashable, cost: float) -> bool:
        """Put ``seg`` on a free core, or return False when none is free.

        A free core that last ran ``domain`` is preferred, else the first
        free core; switching domains costs ``switch_penalty``.
        """
        best = None
        for core in self.cores:
            if core.busy:
                continue
            if core.last_domain == domain:
                best = core
                break
            if best is None:
                best = core
        if best is None:
            return False
        last = best.last_domain
        if last is not None and last != domain:
            cost += self.switch_penalty
            self.total_switches += 1
        best.busy = True
        best.last_domain = domain
        seg.st[0] += 1
        self.total_busy_time += cost
        seg.core = best
        sim = self.sim
        sim._seq += 1
        if cost == 0.0:
            sim._ready.append((sim.now, sim._seq, seg))
        else:
            heappush(sim._queue, (sim.now + cost, sim._seq, seg))
        return True

    def _admit(self) -> None:
        """Start the earliest-submitted queued segment whose domain is
        under its vCPU cap (called right after a segment frees a core).

        Queues are per domain and FIFO, so that segment is the
        lowest-ticket head among domains under their cap: one look per
        waiting domain, however deep the backlog.  Its cost was
        validated and its domain record attached on submission."""
        best = None
        for st in self._waiting.values():
            if st[1] is None or st[0] < st[1]:
                head = st[2][0]
                if best is None or head[0] < best[0]:
                    best = head
        if best is None:
            return
        _ticket, seg, domain, cost = best
        if self._start(seg, domain, cost):
            queue = seg.st[2]
            queue.popleft()
            if not queue:
                del self._waiting[domain]
