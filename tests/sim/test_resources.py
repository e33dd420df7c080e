"""Tests for Store and the CPU-core model."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.resources import CPUCores, Store
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

    def test_try_put_respects_capacity(self, sim):
        store = Store(sim, capacity=1)
        assert store.try_put("a")
        assert not store.try_put("b")
        assert len(store) == 1

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
        assert store.try_put("direct")
        sim.run()
        assert result["item"] == "direct"
        assert len(store) == 0

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)


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
