"""Core discrete-event simulation engine.

The engine is deliberately small and dependency-free.  It provides:

* :class:`Simulator` -- the event calendar and main loop.
* :class:`Event` -- a one-shot occurrence that processes can wait on.
* :class:`Timeout` -- an event that fires after a simulated delay.
* :class:`Process` -- a generator-based coroutine driven by the engine.
* :class:`AnyOf` / :class:`AllOf` -- composite wait conditions.

Time is a float in **seconds**.  Events scheduled for the same instant
fire in FIFO order of scheduling (a monotonically increasing sequence
number breaks ties), which makes simulations fully deterministic.

Fast-path design
----------------
Profiling the paper workloads shows >90 % of wall-clock time inside the
engine and its per-event allocations, so the hot paths are organised
around four ideas:

* **Immediate run queue.**  Zero-delay scheduling (``succeed()``,
  process init, bounces -- the overwhelming majority of
  events) appends to a plain deque instead of the heap.  Because
  simulated time never decreases, the deque is always sorted by
  ``(time, seq)``; :meth:`Simulator.run` merges the deque head with the
  heap head, so the global firing order is *identical* to a single heap
  keyed on ``(time, seq)`` -- same-time FIFO semantics are preserved
  exactly, at O(1) instead of O(log n) per event.
* **Allocation-free resume.**  Process resumption dispatches through
  bound methods and tiny ``__slots__`` :class:`_Resume` records
  rather than per-resume lambda closures and full :class:`Event`
  bounce objects.
* **Allocation-free CPU charges.**  ``yield node.exec(cost)`` -- one per
  simulated hop -- yields the running process's own reusable charge
  record (``Process._charge``, see
  :meth:`repro.sim.resources.CPUCores.charge`) instead of a fresh
  ``Event``.  :meth:`Process._step` recognises the record by identity
  and parks the process with no callback list.  When the segment ends,
  the record takes the sequence number the done ``Event`` would have
  taken; if nothing else is due at that instant (the ready deque is
  empty and the heap head is later) it resumes the process in place and
  counts one event, otherwise it queues itself on the ready deque.
  Firing order, ``_seq`` and :attr:`Simulator.event_count` are
  therefore exactly those of the ``Event`` chain.
* **No f-strings on hot constructors.**  Event/timeout names are static
  strings; pretty names are built lazily in ``__repr__`` only.

Anything placed on the calendar only needs a ``_process()`` method; the
heap/deque entries are ``(time, seq, obj)`` tuples and ``obj`` is never
compared (seq is unique).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.metrics import Metrics

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]

_INF = float("inf")


class SimulationError(Exception):
    """Raised for engine misuse (e.g. triggering an event twice)."""


# Event lifecycle states.
PENDING = 0
TRIGGERED = 1  # scheduled on the calendar, callbacks not yet run
PROCESSED = 2  # callbacks have run
IDLE = 3  # CPU charge records only: consumed by a yield, free for reuse


class Event:
    """A one-shot occurrence.

    Processes wait on an event by yielding it.  Code triggers it with
    :meth:`succeed` or :meth:`fail`.  Once processed an event holds its
    ``value`` (or the exception) forever; waiting on an already-processed
    event resumes the waiter immediately.
    """

    __slots__ = ("sim", "callbacks", "_state", "_value", "_ok", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._state = PENDING
        self._value: Any = None
        self._ok = True
        self.name = name

    # -- inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or stored exception); raises while pending."""
        if self._state == PENDING:
            raise SimulationError(f"event {self!r} has no value yet")
        return self._value

    # -- triggering ---------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._state != PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if delay == 0.0:
            # Immediate run queue: O(1), bypasses the heap entirely.
            sim = self.sim
            sim._seq += 1
            sim._ready.append((sim.now, sim._seq, self))
        else:
            self.sim._schedule(self, delay)  # rejects a bad delay first
        self._state = TRIGGERED
        self._ok = True
        self._value = value
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire with an exception after ``delay``."""
        if self._state != PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self.sim._schedule(self, delay)
        self._state = TRIGGERED
        self._ok = False
        self._value = exception
        return self

    # -- engine internals ----------------------------------------------
    def _process(self) -> None:
        self._state = PROCESSED
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for cb in callbacks:
                cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<Event {self.name or hex(id(self))} {state[self._state]}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        super().__init__(sim, name="timeout")
        self.delay = delay
        self._state = TRIGGERED
        self._ok = True
        self._value = value
        sim._schedule(self, delay)  # rejects a bad delay

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeout({self.delay}) {hex(id(self))}>"


class _Resume:
    """Calendar entry that resumes a process with a fixed value.

    Replaces the bounce/init Event-plus-lambda pattern: one small
    ``__slots__`` record instead of an Event, a callbacks list, and a
    closure.  Scheduling order (and thus determinism) is unchanged --
    the record consumes one sequence number exactly like the Event it
    replaces.
    """

    __slots__ = ("process", "value", "ok")

    def __init__(self, process: "Process", value: Any, ok: bool):
        self.process = process
        self.value = value
        self.ok = ok

    def _process(self) -> None:
        proc = self.process
        proc._waiting_on = None
        proc._step(self.value, self.ok)


class _Condition(Event):
    """Base for AnyOf/AllOf.  Fires when ``_check`` says it is satisfied."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = tuple(events)
        self._count = 0
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        # Register after validation so a raise leaves no dangling callbacks.
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.processed:
                self._on_event(ev)
            else:
                ev.callbacks.append(self._on_event)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev.processed and ev.ok}

    def _on_event(self, ev: Event) -> None:
        if self._state != PENDING:
            return
        if not ev.ok:
            self.fail(ev._value)
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class AllOf(_Condition):
    """Fires once every constituent event has fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= len(self.events)


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A coroutine driven by the simulator.

    A process wraps a generator that yields :class:`Event` objects.  The
    process itself is an event that fires (with the generator's return
    value) when the generator finishes, so processes can wait on each
    other simply by yielding them.
    """

    __slots__ = ("generator", "_waiting_on", "_charge")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = ""):
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise TypeError(f"Process needs a generator, got {generator!r}")
        self.generator = generator
        self._waiting_on: Any = None
        #: this process's reusable CPU charge record, made on its first
        #: :meth:`repro.sim.resources.CPUCores.charge`.
        self._charge: Any = None
        # Kick off the process via an immediately-scheduled resume record.
        sim._seq += 1
        sim._ready.append((sim.now, sim._seq, _Resume(self, None, True)))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == PENDING

    # -- engine internals ----------------------------------------------
    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        self._step(event._value, event._ok)

    def _step(self, value: Any, ok: bool) -> None:
        """Advance the generator one yield: send on ok, throw otherwise."""
        sim = self.sim
        prev = sim.active_process
        sim.active_process = self
        try:
            if ok:
                target = self.generator.send(value)
            else:
                target = self.generator.throw(value)
        except StopIteration as stop:
            sim.active_process = prev
            self.succeed(stop.value)
            return
        except BaseException:
            sim.active_process = prev
            raise
        sim.active_process = prev
        if target is self._charge and target is not None:
            # Our own CPU charge record: park with no callback list; the
            # record resumes us when its segment ends.
            if target._state < PROCESSED:
                self._waiting_on = target
                return
            # Its segment ended while we waited on something else:
            # consume it and resume next round, as for a processed Event.
            target._state = IDLE
            sim._seq += 1
            sim._ready.append((sim.now, sim._seq, _Resume(self, None, True)))
            self._waiting_on = None
            return
        if type(target) is not Event and not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name} yielded {target!r}; processes must yield Events"
            )
        if target._state == PROCESSED:
            # Already-fired event: resume on the next scheduling round.
            sim._seq += 1
            sim._ready.append((sim.now, sim._seq, _Resume(self, target._value, target._ok)))
            self._waiting_on = None
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target


class Simulator:
    """Event calendar and main loop.

    An uncaught exception inside a process propagates out of
    :meth:`run` immediately.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.active_process: Optional[Process] = None
        #: delayed events: heap of (time, seq, obj).
        self._queue: list[tuple[float, int, Any]] = []
        #: zero-delay events: deque of (time, seq, obj), always sorted
        #: by construction because ``now`` is monotonically non-decreasing.
        self._ready: deque[tuple[float, int, Any]] = deque()
        self._seq = 0
        self._seed = seed
        self._rng = None
        #: total calendar entries processed (events, timeouts, resumes).
        self._event_count = 0
        #: optional :class:`repro.faults.FaultPlan` consulted by the fault
        #: tap points (control frames, notifies, grant maps); None = the
        #: taps are pure no-ops.  The engine itself never reads this.
        self.fault_plan = None
        #: counter registry every subsystem built on this simulator
        #: registers into (read by :func:`repro.trace.engine_stats`).
        self.metrics = Metrics()

    @property
    def rng(self):
        """Seeded numpy Generator shared by all stochastic model elements
        (lazily created so pure-logic simulations never touch numpy RNG)."""
        if self._rng is None:
            from repro.sim.rng import make_rng

            self._rng = make_rng(self._seed)
        return self._rng

    @property
    def event_count(self) -> int:
        """Calendar entries processed since construction.

        Counts everything the main loop pops -- events, timeouts, and the
        engine's internal resume records.  The count is deterministic for
        a given seed: ``tests/integration/test_perf_ledger.py`` pins it
        for each benchmark workload, and ``perfbench/run.py`` reports it
        per op as ``sim.events_per_op``.
        """
        return self._event_count

    def snapshot_state(self) -> dict:
        """The engine calendar and counters as a plain, JSON-able dict.

        Captures everything that determines future scheduling order
        except the generator frames themselves: ``now``, the sequence
        counter (exact tie-break order), the event count, the seed, the
        RNG bit-generator state, and a summary of the pending calendar
        (sizes plus the (time, seq, kind) triple of every entry).  Live
        coroutines cannot be serialized -- process continuation relies
        on deterministic replay; this dict is the *identity* of the
        simulator state, used for digests, inspection, and drift checks.
        """
        from repro.sim.rng import rng_state

        calendar = [
            [t, seq, type(obj).__name__]
            for (t, seq, obj) in sorted(self._queue)
        ]
        ready = [[t, seq, type(obj).__name__] for (t, seq, obj) in self._ready]
        return {
            "now": self.now,
            "seq": self._seq,
            "event_count": self._event_count,
            "seed": self._seed if isinstance(self._seed, int) else repr(self._seed),
            "rng": rng_state(self.rng),
            "queue_len": len(self._queue),
            "ready_len": len(self._ready),
            "calendar": calendar,
            "ready": ready,
            "has_fault_plan": self.fault_plan is not None,
        }

    # -- event factories ------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Run a generator as a concurrent process."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any constituent fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when every constituent has fired."""
        return AllOf(self, events)

    # -- scheduling -----------------------------------------------------
    def _schedule(self, obj: Any, delay: float = 0.0) -> None:
        """Place anything with a ``_process()`` method on the calendar."""
        if delay == 0.0:
            self._seq += 1
            self._ready.append((self.now, self._seq, obj))
            return
        if not 0.0 < delay < _INF:
            raise ValueError(f"delay must be finite and >= 0, got {delay}")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, obj))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf when idle."""
        ready = self._ready
        queue = self._queue
        if ready:
            return ready[0][0] if not queue or ready[0] < queue[0] else queue[0][0]
        return queue[0][0] if queue else _INF

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar empties or ``until`` is reached.

        When ``until`` is given, ``now`` is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run``
        calls compose like wall-clock intervals.
        """
        ready = self._ready
        queue = self._queue
        heappop = heapq.heappop
        count = 0
        if until is None:
            while ready or queue:
                if ready and (not queue or ready[0] < queue[0]):
                    when, _, obj = ready.popleft()
                else:
                    when, _, obj = heappop(queue)
                self.now = when
                count += 1
                obj._process()
            self._event_count += count
            return
        if until < self.now:
            raise SimulationError(f"until={until} is in the past (now={self.now})")
        heappush = heapq.heappush
        popleft = ready.popleft
        try:
            # Pop-then-restore: popping directly and putting the entry
            # back on the (at most one) break beats peeking every
            # iteration on the hot path.
            while ready or queue:
                if ready and (not queue or ready[0] < queue[0]):
                    entry = popleft()
                    if entry[0] > until:
                        ready.appendleft(entry)
                        break
                else:
                    entry = heappop(queue)
                    if entry[0] > until:
                        heappush(queue, entry)
                        break
                self.now = entry[0]
                count += 1
                entry[2]._process()
        finally:
            self._event_count += count
        self.now = until

    def run_until_complete(self, process: Process, timeout: Optional[float] = None) -> Any:
        """Run until ``process`` finishes and return its value.

        An uncaught exception in any process propagates out of this call
        as it is raised.  Raises :class:`SimulationError` if the calendar
        empties (or ``timeout`` simulated seconds elapse) before
        ``process`` finishes.
        """
        deadline = _INF if timeout is None else self.now + timeout
        ready = self._ready
        queue = self._queue
        heappop = heapq.heappop
        popleft = ready.popleft
        pending = PENDING
        count = 0
        try:
            # Same pop-then-restore structure as run(): the deadline is
            # exceeded at most once, so the restore branch never runs on
            # the hot path.
            while process._state == pending:
                if ready and (not queue or ready[0] < queue[0]):
                    entry = popleft()
                    if entry[0] > deadline:
                        ready.appendleft(entry)
                        raise SimulationError(f"timeout waiting for {process.name}")
                elif queue:
                    entry = heappop(queue)
                    if entry[0] > deadline:
                        heapq.heappush(queue, entry)
                        raise SimulationError(f"timeout waiting for {process.name}")
                else:
                    raise SimulationError(f"deadlock: {process.name} never finished")
                self.now = entry[0]
                count += 1
                entry[2]._process()
        finally:
            self._event_count += count
        return process.value
