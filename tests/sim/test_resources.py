"""Tests for WaitQueue, Store and the CPU-core model."""

import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Event, Simulator
from repro.sim.resources import CPUCores, Store, WaitQueue
from tests.conftest import run_gen


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)

        def gen():
            yield store.put("a")
            item = yield store.get()
            return item

        assert run_gen(sim, gen()) == "a"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        result = {}

        def getter():
            result["item"] = yield store.get()
            result["time"] = sim.now

        def putter():
            yield sim.timeout(3.0)
            yield store.put("x")

        sim.process(getter())
        sim.process(putter())
        sim.run()
        assert result == {"item": "x", "time": 3.0}

    def test_fifo_order(self, sim):
        store = Store(sim)
        for i in range(5):
            store.put(i)
        got = []

        def gen():
            for _ in range(5):
                got.append((yield store.get()))

        run_gen(sim, gen())
        assert got == [0, 1, 2, 3, 4]

    def test_bounded_put_blocks(self, sim):
        store = Store(sim, capacity=2)
        events = []

        def putter():
            for i in range(4):
                yield store.put(i)
                events.append((i, sim.now))

        def getter():
            yield sim.timeout(5.0)
            yield store.get()
            yield sim.timeout(5.0)
            yield store.get()

        sim.process(putter())
        sim.process(getter())
        sim.run()
        # first two puts immediate, third at 5.0, fourth at 10.0
        assert [t for _i, t in events] == [0.0, 0.0, 5.0, 10.0]

    def test_try_get(self, sim):
        store = Store(sim)
        found, item = store.try_get()
        assert not found
        store.put("z")
        found, item = store.try_get()
        assert found and item == "z"

    def test_put_hands_to_waiting_getter(self, sim):
        store = Store(sim, capacity=1)
        result = {}

        def getter():
            result["item"] = yield store.get()

        sim.process(getter())
        sim.run()
        assert store.put("direct").triggered
        sim.run()
        assert result["item"] == "direct"
        assert len(store) == 0

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)


class _EagerStore(Store):
    """Reference ``put``: a put that completes at once still schedules
    its done Event, whether or not anyone yields it."""

    def put(self, item):
        ev = Event(self.sim, "store.put")
        if self._getters.wake_one(item):
            ev.succeed()
        elif self.capacity is None or len(self.items) < self.capacity:
            self.items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev


#: one actor step: a yielded put, a fire-and-forget put, a blocking get,
#: a non-blocking get or a sleep.
_STEP = st.sampled_from(["put", "put_forget", "get", "try_get"]) | st.tuples(
    st.just("sleep"), st.sampled_from([0.0, 0.5, 1.0])
)
_ACTOR = st.tuples(st.sampled_from([0.0, 0.5, 1.0]), st.lists(_STEP, max_size=8))


def _store_log(cls, capacity, actors):
    """Run ``actors`` against one store; return the interleaving log,
    the engine's accounting and how many fire-and-forget puts completed
    at once (a yielded one trades its done Event for a resume record)."""
    sim = Simulator()
    store = cls(sim, capacity)
    log = []
    unheard = 0

    def actor(a, start, steps):
        nonlocal unheard
        yield sim.timeout(start)
        for i, step in enumerate(steps):
            result = None
            if step in ("put", "put_forget"):
                ev = store.put((a, i))
                if step == "put":
                    yield ev
                else:
                    unheard += ev.triggered
            elif step == "get":
                result = yield store.get()
            elif step == "try_get":
                result = store.try_get()
            else:
                yield sim.timeout(step[1])
            log.append((a, i, result, sim.now))

    for a, (start, steps) in enumerate(actors):
        sim.process(actor(a, start, steps))
    sim.run()
    return log, list(store.items), sim.now, sim.event_count, sim._seq, unheard


class TestNonBlockingPut:
    """A put that completes at once schedules nothing, and every process
    still runs in the order the eager put gave."""

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.sampled_from([None, 1, 2]),
        actors=st.lists(_ACTOR, min_size=1, max_size=5),
    )
    def test_matches_eager_put(self, capacity, actors):
        log, items, now, events, seq, unheard = _store_log(Store, capacity, actors)
        ref = _store_log(_EagerStore, capacity, actors)
        assert (log, items, now) == ref[:3]
        assert ref[5] == unheard
        assert ref[3] - events == unheard
        assert ref[4] - seq == unheard

    def test_put_to_free_space_schedules_nothing(self, sim):
        store = Store(sim, capacity=1)
        assert store.put("a").processed
        assert not store.put("b").triggered  # full: blocks as before
        sim.run()
        assert sim.event_count == 0


class TestWaitQueue:
    def test_wake_one_skips_an_already_triggered_waiter(self, sim):
        queue = WaitQueue(sim)
        raced = queue.wait("a")
        parked = queue.wait("b")
        raced.succeed("lost the race")  # e.g. the loser of an any_of
        assert len(queue) == 2  # skipped ones count until a wake reaches them
        assert queue.wake_one("item") is True
        assert len(queue) == 0
        sim.run()
        assert raced.value == "lost the race"
        assert parked.value == "item"

    def test_wake_one_on_empty_queue_is_a_no_op(self, sim):
        queue = WaitQueue(sim)
        assert queue.wake_one() is False
        sim.run()
        assert sim.event_count == 0

    def test_wake_one_is_fifo(self, sim):
        queue = WaitQueue(sim)
        woken = []

        def waiter(i):
            woken.append((i, (yield queue.wait())))

        for i in range(3):
            sim.process(waiter(i))
        sim.run()
        assert len(queue) == 3
        queue.wake_one("x")
        queue.wake_one("y")
        sim.run()
        assert woken == [(0, "x"), (1, "y")]
        assert len(queue) == 1

    def test_wake_all(self, sim):
        queue = WaitQueue(sim)
        waiters = [queue.wait() for _ in range(3)]
        waiters[1].succeed("early")
        queue.wake_all()
        assert len(queue) == 0
        sim.run()
        assert [w.value for w in waiters] == [None, "early", None]

    def test_fail_all(self, sim):
        queue = WaitQueue(sim)
        caught = []

        def waiter():
            try:
                yield queue.wait()
            except RuntimeError as exc:
                caught.append(str(exc))

        for _ in range(2):
            sim.process(waiter())
        sim.run()
        queue.fail_all(RuntimeError("gone"))
        sim.run()
        assert caught == ["gone", "gone"]
        assert len(queue) == 0


class TestCPUCores:
    def test_single_core_serializes(self, sim):
        cpus = CPUCores(sim, 1)
        done = []
        for i in range(3):
            ev = cpus.execute("dom", 1.0)
            ev.callbacks.append(lambda _e, i=i: done.append((i, sim.now)))
        sim.run()
        assert done == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_two_cores_parallel(self, sim):
        cpus = CPUCores(sim, 2)
        times = []
        for i in range(2):
            ev = cpus.execute(f"dom{i}", 1.0)
            ev.callbacks.append(lambda _e: times.append(sim.now))
        sim.run()
        assert times == [1.0, 1.0]

    def test_switch_penalty_charged(self, sim):
        cpus = CPUCores(sim, 1, switch_penalty=0.5)
        times = []
        ev1 = cpus.execute("a", 1.0)
        ev1.callbacks.append(lambda _e: times.append(sim.now))
        ev2 = cpus.execute("b", 1.0)
        ev2.callbacks.append(lambda _e: times.append(sim.now))
        sim.run()
        # first segment: no penalty (cold core); second: +0.5 switch
        assert times == [1.0, 2.5]
        assert cpus.total_switches == 1

    def test_affinity_avoids_penalty(self, sim):
        cpus = CPUCores(sim, 2, switch_penalty=1.0)

        def run_domain(dom):
            yield cpus.execute(dom, 1.0)
            yield cpus.execute(dom, 1.0)

        sim.process(run_domain("a"))
        sim.process(run_domain("b"))
        sim.run()
        # each domain sticks to its core: no switches at all
        assert cpus.total_switches == 0
        assert sim.now == 2.0

    def test_vcpu_limit_serializes_domain(self, sim):
        cpus = CPUCores(sim, 2)
        cpus.set_vcpu_limit("guest", 1)
        times = []
        for _ in range(2):
            ev = cpus.execute("guest", 1.0)
            ev.callbacks.append(lambda _e: times.append(sim.now))
        sim.run()
        assert times == [1.0, 2.0]  # serialized despite 2 free cores

    def test_vcpu_limit_does_not_block_other_domains(self, sim):
        cpus = CPUCores(sim, 2)
        cpus.set_vcpu_limit("guest", 1)
        times = {}
        for name in ("guest", "guest", "other"):
            ev = cpus.execute(name, 1.0)
            ev.callbacks.append(lambda _e, n=name: times.setdefault(f"{n}{sim.now}", sim.now))
        sim.run()
        # other finishes at 1.0 in parallel with guest's first segment
        assert times.get("other1.0") == 1.0

    def test_negative_cost_rejected(self, sim):
        cpus = CPUCores(sim, 1)
        with pytest.raises(ValueError):
            cpus.execute("a", -1.0)

    def test_zero_cores_rejected(self, sim):
        with pytest.raises(ValueError):
            CPUCores(sim, 0)

    def test_busy_time_accounting(self, sim):
        cpus = CPUCores(sim, 2)
        cpus.execute("a", 2.0)
        cpus.execute("b", 3.0)
        sim.run()
        assert cpus.total_busy_time == pytest.approx(5.0)

    def test_queue_drains_in_order_per_domain(self, sim):
        cpus = CPUCores(sim, 1)
        order = []
        for i in range(5):
            ev = cpus.execute("d", 0.5)
            ev.callbacks.append(lambda _e, i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class _ScanCPUCores(CPUCores):
    """Reference admission: one shared queue, rescanned from its front
    whenever a core frees, starting the first segment whose domain is
    under its cap.  Per-domain queues must pick the same segments."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # ``_Segment._process`` admits while ``_waiting`` is truthy.
        self._waiting = self._queue = deque()

    def _submit(self, seg, domain, cost):
        if not 0.0 <= cost < math.inf:
            raise ValueError(cost)
        rec = self._dom.get(domain)
        if rec is None:
            rec = self._dom[domain] = [0, None, deque()]
        seg.st = rec
        if (rec[1] is None or rec[0] < rec[1]) and self._start(seg, domain, cost):
            return
        self._queue.append((seg, domain, cost))

    def _admit(self):
        queue = self._queue
        for i, (seg, domain, cost) in enumerate(queue):
            rec = seg.st
            if rec[1] is None or rec[0] < rec[1]:
                if self._start(seg, domain, cost):
                    del queue[i]
                return


# Dyadic costs keep float sums exact, so completions tie often.
_COST = st.sampled_from([0.0, 0.25, 0.5, 1.0])
#: one submitted segment: domain index, cost, optional follow-up
#: segment submitted from its completion callback.
_SEG = st.tuples(st.integers(0, 3), _COST, st.none() | st.tuples(st.integers(0, 3), _COST))
_BURST = st.tuples(st.sampled_from([0.0, 0.25, 1.0]), st.lists(_SEG, min_size=1, max_size=12))


def _admission_log(cls, n_cores, penalty, limits, bursts):
    """Submit ``bursts`` of ``execute_call`` segments; return the
    completion log and the CPU and engine accounting."""
    sim = Simulator()
    cpus = cls(sim, n_cores, switch_penalty=penalty)
    for d, limit in enumerate(limits):
        if limit is not None:
            cpus.set_vcpu_limit(d, limit)
    log = []

    def done(label, follow):
        log.append((label, sim.now))
        if follow is not None:
            dom, cost = follow
            cpus.execute_call(dom % len(limits), cost, lambda: log.append((label + "+", sim.now)))

    def burst(b, at, segs):
        yield sim.timeout(at)
        for i, (dom, cost, follow) in enumerate(segs):
            cpus.execute_call(dom % len(limits), cost, lambda lab=f"{b}.{i}", f=follow: done(lab, f))

    for b, (at, segs) in enumerate(bursts):
        sim.process(burst(b, at, segs))
    sim.run()
    return log, cpus.total_switches, cpus.total_busy_time, sim.event_count, sim._seq


class TestAdmissionOrder:
    """Per-domain queues with submission tickets admit exactly the
    segments the single rescanned queue did."""

    @settings(max_examples=150, deadline=None)
    @given(
        n_cores=st.integers(1, 3),
        penalty=st.sampled_from([0.0, 0.125]),
        limits=st.lists(st.sampled_from([None, 1, 2]), min_size=1, max_size=4),
        bursts=st.lists(_BURST, min_size=1, max_size=4),
    )
    def test_matches_single_queue_scan(self, n_cores, penalty, limits, bursts):
        args = (n_cores, penalty, limits, bursts)
        assert _admission_log(CPUCores, *args) == _admission_log(_ScanCPUCores, *args)

    def test_deep_backlog_matches_single_queue_scan(self):
        """1,500 queued segments, two of every three for a 1-vCPU domain."""
        segs = [(0 if i % 3 else 1, 0.25 * (1 + i % 4), None) for i in range(1500)]
        args = (2, 0.125, [1, None], [(0.0, segs)])
        new = _admission_log(CPUCores, *args)
        assert new == _admission_log(_ScanCPUCores, *args)
        assert len(new[0]) == 1500

    def test_queued_counts_every_domain(self, sim):
        cpus = CPUCores(sim, 1)
        cpus.set_vcpu_limit("a", 1)
        for dom in ("a", "a", "b", "a"):
            cpus.execute(dom, 1.0)
        assert cpus.queued == 3
        sim.run()
        assert cpus.queued == 0
