"""Engine internals: rng determinism, process semantics."""

import pytest

from repro.sim.engine import Simulator


class TestDeterminism:
    def test_same_seed_same_rng_stream(self):
        a = Simulator(seed=7)
        b = Simulator(seed=7)
        assert [a.rng.random() for _ in range(5)] == [b.rng.random() for _ in range(5)]

    def test_different_seed_different_stream(self):
        a = Simulator(seed=1)
        b = Simulator(seed=2)
        assert [a.rng.random() for _ in range(5)] != [b.rng.random() for _ in range(5)]

    def test_default_seed_is_stable(self):
        a = Simulator()
        b = Simulator()
        assert a.rng.random() == b.rng.random()


class TestProcessSemantics:
    def test_immediate_return_process(self, sim):
        def gen():
            return 42
            yield  # pragma: no cover

        assert sim.run_until_complete(sim.process(gen())) == 42

    def test_chained_already_processed_events(self, sim):
        """Yielding a chain of already-processed events still makes
        forward progress (bounce events)."""
        evs = []
        for i in range(5):
            ev = sim.event()
            ev.succeed(i)
            evs.append(ev)
        sim.run()

        def gen():
            total = 0
            for ev in evs:
                total += yield ev
            return total

        assert sim.run_until_complete(sim.process(gen())) == 10

    def test_process_name_from_generator(self, sim):
        def my_worker():
            yield sim.timeout(0)

        proc = sim.process(my_worker())
        assert "my_worker" in proc.name

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)
