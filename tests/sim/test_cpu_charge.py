"""CPU charges from a process (``Node.exec`` -> ``CPUCores.charge``).

A charge made by the running process goes through that process's one
reusable record instead of a fresh done Event.  These tests pin that it
is an exact stand-in: the same resume times and order, the same
``event_count`` and ``_seq``, the same CPU accounting.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import DEFAULT_COSTS
from repro.net.node import Node
from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.resources import CPUCores

# Dyadic costs keep float sums exact, so completions tie often.
_COSTS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])
_STEP = st.one_of(
    st.tuples(st.just("exec"), _COSTS),
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 0.25, 1.0])),
    st.tuples(st.just("upcall"), _COSTS),
)
_PROC = st.tuples(
    st.integers(0, 3),  # domain index (modulo the domain count)
    st.sampled_from([0.0, 0.5]),  # start delay
    st.lists(_STEP, min_size=1, max_size=5),
)


def _contend(n_cores, penalty, limits, procs, via_node):
    """Run ``procs`` against shared cores; return everything observable."""
    sim = Simulator()
    cpus = CPUCores(sim, n_cores, switch_penalty=penalty)
    nodes = []
    for i, limit in enumerate(limits):
        node = Node(sim, cpus, DEFAULT_COSTS, f"d{i}")
        if limit is not None:
            cpus.set_vcpu_limit(node.sched_key, limit)
        nodes.append(node)
    log = []

    def worker(pid, node, start, steps):
        if start:
            yield sim.timeout(start)
        for kind, x in steps:
            if kind == "exec":
                yield node.exec(x) if via_node else cpus.execute(node.sched_key, x)
            elif kind == "sleep":
                yield sim.timeout(x)
            else:
                cpus.execute_call(node.sched_key, x, lambda: log.append(("up", pid, sim.now)))
            log.append((pid, sim.now))

    for pid, (dom, start, steps) in enumerate(procs):
        sim.process(worker(pid, nodes[dom % len(nodes)], start, steps))
    sim.run()
    return log, sim.event_count, sim._seq, sim.now, cpus.total_busy_time, cpus.total_switches


class TestEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(
        n_cores=st.integers(1, 3),
        penalty=st.sampled_from([0.0, 0.25]),
        limits=st.lists(st.sampled_from([None, 1, 2]), min_size=1, max_size=4),
        procs=st.lists(_PROC, min_size=1, max_size=6),
    )
    def test_node_exec_matches_execute(self, n_cores, penalty, limits, procs):
        via_event = _contend(n_cores, penalty, limits, procs, via_node=False)
        via_record = _contend(n_cores, penalty, limits, procs, via_node=True)
        assert via_record == via_event

    def test_process_charges_reuse_one_record(self, sim):
        cpus = CPUCores(sim, 1)
        node = Node(sim, cpus, DEFAULT_COSTS, "n")
        seen = []

        def worker():
            for _ in range(3):
                charge = node.exec(1.0)
                seen.append(charge)
                yield charge

        proc = sim.process(worker())
        sim.run()
        assert sim.now == 3.0
        assert seen[0] is proc._charge
        assert all(charge is seen[0] for charge in seen)


def _trace(sim, gen_factory, via_node):
    """Run one scenario built by ``gen_factory(charge)``; return what a
    caller can observe of it."""
    cpus = CPUCores(sim, 1)
    node = Node(sim, cpus, DEFAULT_COSTS, "n")
    log = []
    charge = node.exec if via_node else (lambda cost: cpus.execute("n", cost))
    for gen in gen_factory(sim, charge, log):
        sim.process(gen)
    sim.run()
    return log, sim.event_count, sim._seq, cpus.total_busy_time


class TestEdges:
    def test_exec_outside_any_process_returns_event(self, sim):
        cpus = CPUCores(sim, 1)
        node = Node(sim, cpus, DEFAULT_COSTS, "n")
        done = node.exec(2.0)
        assert type(done) is Event
        sim.run()
        assert done.processed and sim.now == 2.0

    @pytest.mark.parametrize("order", ["first", "second"])
    def test_two_charges_before_one_yield(self, order):
        kinds = []

        def scenario(sim, charge, log):
            def worker():
                a = charge(1.0)
                b = charge(2.0)
                kinds.append((type(a), type(b)))
                first, second = (a, b) if order == "first" else (b, a)
                yield first
                log.append(("first", sim.now))
                yield second
                log.append(("second", sim.now))
                yield charge(0.5)  # the record is free again
                log.append(("third", sim.now))

            return [worker()]

        via_event = _trace(Simulator(), scenario, via_node=False)
        via_record = _trace(Simulator(), scenario, via_node=True)
        assert via_record == via_event
        # the second charge fell back to an Event: the record was in flight
        assert kinds[1][0] is not Event and kinds[1][1] is Event

    def test_yield_none_before_any_charge_rejected(self, sim):
        def gen():
            yield None

        sim.process(gen())
        with pytest.raises(SimulationError):
            sim.run()

    def test_record_yielded_by_another_process_rejected(self, sim):
        cpus = CPUCores(sim, 1)
        node = Node(sim, cpus, DEFAULT_COSTS, "n")
        handoff = []

        def owner():
            handoff.append(node.exec(1.0))
            yield sim.timeout(5.0)

        def thief():
            yield sim.timeout(0.5)
            yield handoff[0]

        sim.process(owner())
        sim.process(thief())
        with pytest.raises(SimulationError):
            sim.run()


_BAD = [math.nan, math.inf, -math.inf, -1.0]


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", _BAD)
    def test_timeout(self, sim, bad):
        with pytest.raises(ValueError):
            sim.timeout(bad)
        assert sim.peek() == math.inf

    @pytest.mark.parametrize("bad", _BAD)
    def test_succeed_and_fail_delay(self, sim, bad):
        ev = sim.event()
        with pytest.raises(ValueError):
            ev.succeed(delay=bad)
        with pytest.raises(ValueError):
            ev.fail(RuntimeError("x"), delay=bad)
        assert not ev.triggered  # still usable
        ev.succeed("ok", delay=1.0)
        sim.run()
        assert ev.value == "ok" and sim.now == 1.0

    @pytest.mark.parametrize("bad", _BAD)
    def test_schedule(self, sim, bad):
        with pytest.raises(ValueError):
            sim._schedule(sim.event(), bad)

    @pytest.mark.parametrize("bad", _BAD)
    def test_cpu_entry_points(self, sim, bad):
        cpus = CPUCores(sim, 1)
        node = Node(sim, cpus, DEFAULT_COSTS, "n")
        with pytest.raises(ValueError):
            cpus.execute("n", bad)
        with pytest.raises(ValueError):
            cpus.execute_call("n", bad, lambda: None)
        with pytest.raises(ValueError):
            node.exec(bad)
        with pytest.raises(ValueError):
            CPUCores(sim, 1, switch_penalty=bad)

        def worker():
            with pytest.raises(ValueError):
                node.exec(bad)
            yield node.exec(1.0)  # the record was not left in flight

        proc = sim.process(worker())
        sim.run()
        assert proc.ok and sim.now == 1.0
        assert cpus.total_busy_time == 1.0
