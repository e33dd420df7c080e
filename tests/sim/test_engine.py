"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    SimulationError,
    Simulator,
    Timeout,
)


class TestEventLifecycle:
    def test_event_starts_pending(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_succeed_carries_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        sim.run()
        assert ev.processed
        assert ev.value == 42

    def test_succeed_twice_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_then_succeed_raises(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("boom"))
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_delayed_succeed(self, sim):
        ev = sim.event()
        ev.succeed("late", delay=5.0)
        sim.run()
        assert sim.now == 5.0
        assert ev.value == "late"


class TestTimeout:
    def test_fires_at_delay(self, sim):
        t = sim.timeout(2.5)
        sim.run()
        assert sim.now == 2.5
        assert t.processed

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_timeout_value(self, sim):
        t = sim.timeout(1.0, value="v")
        sim.run()
        assert t.value == "v"

    def test_zero_delay(self, sim):
        t = sim.timeout(0)
        sim.run()
        assert sim.now == 0.0
        assert t.processed


class TestOrdering:
    def test_same_time_fifo(self, sim):
        order = []
        for i in range(10):
            t = sim.timeout(1.0)
            t.callbacks.append(lambda _ev, i=i: order.append(i))
        sim.run()
        assert order == list(range(10))

    def test_time_ordering(self, sim):
        order = []
        for delay in (3.0, 1.0, 2.0):
            t = sim.timeout(delay)
            t.callbacks.append(lambda _ev, d=delay: order.append(d))
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_peek(self, sim):
        assert sim.peek() == float("inf")
        sim.timeout(4.0)
        assert sim.peek() == 4.0

    def test_run_until(self, sim):
        hits = []
        for d in (1.0, 2.0, 3.0):
            sim.timeout(d).callbacks.append(lambda _e, d=d: hits.append(d))
        sim.run(until=2.5)
        assert hits == [1.0, 2.0]
        assert sim.now == 2.5

    def test_run_until_past_raises(self, sim):
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=0.5)


class TestProcess:
    def test_process_returns_value(self, sim):
        def gen():
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(gen())
        value = sim.run_until_complete(proc)
        assert value == "done"
        assert sim.now == 1.0

    def test_process_waits_on_event(self, sim):
        ev = sim.event()

        def gen():
            got = yield ev
            return got

        proc = sim.process(gen())
        ev.succeed("payload", delay=2.0)
        assert sim.run_until_complete(proc) == "payload"

    def test_process_waits_on_process(self, sim):
        def inner():
            yield sim.timeout(1.0)
            return 7

        def outer():
            value = yield sim.process(inner())
            return value * 2

        assert sim.run_until_complete(sim.process(outer())) == 14

    def test_yield_already_processed_event(self, sim):
        ev = sim.event()
        ev.succeed(5)

        def gen():
            yield sim.timeout(1.0)  # let ev be processed first
            got = yield ev
            return got

        assert sim.run_until_complete(sim.process(gen())) == 5

    def test_yield_non_event_raises(self, sim):
        def gen():
            yield 42

        sim.process(gen())
        with pytest.raises(SimulationError):
            sim.run()

    def test_failed_event_raises_into_process(self, sim):
        ev = sim.event()

        def gen():
            try:
                yield ev
            except RuntimeError as exc:
                return f"caught {exc}"

        proc = sim.process(gen())
        ev.fail(RuntimeError("bad"))
        assert sim.run_until_complete(proc) == "caught bad"

    def test_uncaught_exception_propagates_out_of_run(self, sim):
        def gen():
            yield sim.timeout(1.0)
            raise ValueError("kapow")

        sim.process(gen())
        with pytest.raises(ValueError, match="kapow"):
            sim.run()

    def test_uncaught_exception_propagates_out_of_run_until_complete(self, sim):
        def gen():
            yield sim.timeout(1.0)
            raise ValueError("kapow")

        proc = sim.process(gen())
        with pytest.raises(ValueError, match="kapow"):
            sim.run_until_complete(proc)
        assert sim.now == 1.0

    def test_run_until_complete_deadlock_detection(self, sim):
        ev = sim.event()  # never fires

        def gen():
            yield ev

        proc = sim.process(gen())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(proc)

    def test_run_until_complete_timeout(self, sim):
        def gen():
            yield sim.timeout(100.0)

        def noise():
            while True:
                yield sim.timeout(1.0)

        sim.process(noise())
        proc = sim.process(gen())
        with pytest.raises(SimulationError, match="timeout"):
            sim.run_until_complete(proc, timeout=10.0)


class TestConditions:
    def test_any_of_first_wins(self, sim):
        a = sim.timeout(5.0, value="a")
        b = sim.timeout(2.0, value="b")

        def gen():
            results = yield sim.any_of([a, b])
            return results

        results = sim.run_until_complete(sim.process(gen()))
        assert b in results and results[b] == "b"
        assert sim.now == 2.0

    def test_all_of_waits_for_all(self, sim):
        a = sim.timeout(5.0, value="a")
        b = sim.timeout(2.0, value="b")

        def gen():
            results = yield sim.all_of([a, b])
            return results

        results = sim.run_until_complete(sim.process(gen()))
        assert results[a] == "a" and results[b] == "b"
        assert sim.now == 5.0

    def test_empty_all_of_fires_immediately(self, sim):
        def gen():
            yield sim.all_of([])
            return sim.now

        assert sim.run_until_complete(sim.process(gen())) == 0.0

    def test_any_of_with_already_processed(self, sim):
        ev = sim.event()
        ev.succeed("x")

        def gen():
            yield sim.timeout(1.0)
            results = yield sim.any_of([ev, sim.timeout(50.0)])
            return results

        results = sim.run_until_complete(sim.process(gen()))
        assert results[ev] == "x"
        assert sim.now == 1.0

    def test_condition_failure_propagates(self, sim):
        good = sim.timeout(5.0)
        bad = sim.event()
        bad.fail(RuntimeError("nope"))

        def gen():
            try:
                yield sim.all_of([good, bad])
            except RuntimeError:
                return "failed"

        assert sim.run_until_complete(sim.process(gen())) == "failed"

    def test_mixed_simulator_condition_rejected(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            sim.any_of([sim.timeout(1.0), other.timeout(1.0)])
