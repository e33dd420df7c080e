"""Timer-wheel tests: fire order bit-identical to the heap calendar.

The wheel is a second calendar source merged into the engine's run loop
by the same ``(time, seq)`` key the heap uses, and a ``WheelTimeout``
consumes one sequence number at creation exactly like a heap
``Timeout`` -- so swapping ``sim.timeout`` for ``sim.wheel.timeout`` at
any call site must not reorder a single event.  These tests pin that
equivalence (including same-tick ties, cancellation tombstones, level
cascades, and the overflow list) against an all-heap reference run.
"""

import random

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.timers import TICK, _LEVELS, _SLOTS


def _fire_log(kind: str, schedules, until: float = None):
    """Run one simulator firing ``schedules`` = [(tag, [delay, ...])]
    per-process delay chains; returns the (now, tag) fire log.

    ``kind`` picks the calendar: "heap" (sim.timeout), "wheel"
    (sim.wheel.timeout), or "mixed" (alternating by hop index).
    """
    sim = Simulator()
    log = []

    def proc(tag, delays):
        for hop, delay in enumerate(delays):
            if kind == "heap" or (kind == "mixed" and hop % 2):
                yield sim.timeout(delay)
            else:
                yield sim.wheel.timeout(delay)
            log.append((sim.now, tag, hop))

    for tag, delays in schedules:
        sim.process(proc(tag, delays), name=tag)
    if until is None:
        sim.run()
    else:
        sim.run(until=until)
    return log


class TestHeapEquivalence:
    def test_single_timer(self):
        assert _fire_log("wheel", [("a", [0.5])]) == _fire_log("heap", [("a", [0.5])])

    def test_same_tick_ties_keep_seq_order(self):
        # Many timers at the *same* delay from the same time: creation
        # (seq) order must decide, identically to the heap.
        schedules = [(f"t{i}", [0.001, 0.001, 0.001]) for i in range(8)]
        assert _fire_log("wheel", schedules) == _fire_log("heap", schedules)

    def test_randomized_chains_match_heap(self):
        # Re-arming processes with random delays spanning sub-tick gaps,
        # level-0 slots, higher levels, and the far future.
        for seed in range(20):
            rng = random.Random(seed)
            schedules = [
                (
                    f"p{i}",
                    [
                        rng.choice(
                            [
                                rng.uniform(0, TICK),  # sub-tick
                                rng.uniform(0, 0.01),  # level 0
                                rng.uniform(0, 2.0),  # levels 1-2
                                rng.uniform(0, 400.0),  # level 3
                            ]
                        )
                        for _ in range(rng.randrange(1, 6))
                    ],
                )
                for i in range(rng.randrange(2, 8))
            ]
            assert _fire_log("wheel", schedules) == _fire_log("heap", schedules), seed

    def test_mixed_calendars_match_heap(self):
        # Alternating heap/wheel hops inside one process -- the merge
        # path itself (this interleaving caught the frame push-down bug).
        for seed in range(40):
            rng = random.Random(1000 + seed)
            schedules = [
                (
                    f"p{i}",
                    [rng.uniform(0, 0.05) for _ in range(rng.randrange(1, 8))],
                )
                for i in range(rng.randrange(2, 10))
            ]
            assert _fire_log("mixed", schedules) == _fire_log("heap", schedules), seed

    def test_run_until_stops_both_calendars(self):
        schedules = [("a", [0.1, 0.1, 0.1]), ("b", [0.05, 0.2])]
        for until in (0.05, 0.15, 0.25, 1.0):
            assert _fire_log("wheel", schedules, until=until) == _fire_log(
                "heap", schedules, until=until
            ), until

    def test_overflow_beyond_top_level(self):
        # Past level 3's horizon (2**32 ticks = 2**18 s) entries park in
        # the sorted overflow list and still fire in order.
        horizon = TICK * (_SLOTS ** _LEVELS)
        schedules = [
            ("far2", [horizon * 2.5]),
            ("far1", [horizon * 1.25]),
            ("near", [0.5]),
        ]
        assert _fire_log("wheel", schedules) == _fire_log("heap", schedules)


class TestWheelTimers:
    def test_call_after_runs_callback(self):
        sim = Simulator()
        fired = []
        sim.wheel.call_after(0.25, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.25]

    def test_call_at_absolute_time(self):
        sim = Simulator()
        fired = []

        def proc():
            yield sim.timeout(0.1)
            sim.wheel.call_at(0.4, lambda: fired.append(sim.now))

        sim.process(proc())
        sim.run()
        assert fired == [0.4]

    def test_cancel_is_lazy_and_idempotent(self):
        sim = Simulator()
        fired = []
        keep = sim.wheel.call_after(0.2, lambda: fired.append("keep"))
        drop = sim.wheel.call_after(0.1, lambda: fired.append("drop"))
        assert drop.cancel() is True
        assert drop.cancel() is False  # already tombstoned
        sim.run()
        assert fired == ["keep"]
        assert keep.cancel() is False  # already fired
        assert sim.wheel.counters()["cancelled"] == 1
        assert sim.wheel.counters()["fired"] == 1

    def test_mass_cancellation_leaves_no_live_entries(self):
        sim = Simulator()
        handles = [sim.wheel.call_after(0.1 + i * 0.01, lambda: None) for i in range(100)]
        for h in handles[1:]:
            h.cancel()
        sim.run()
        assert len(sim.wheel) == 0
        counters = sim.wheel.counters()
        assert counters["scheduled"] == 100
        assert counters["fired"] == 1
        assert counters["cancelled"] == 99

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises((ValueError, SimulationError)):
            sim.wheel.timeout(-1.0)

    def test_snapshot_state_only_when_live(self):
        sim = Simulator()
        assert "wheel" not in sim.snapshot_state()
        sim.wheel.call_after(0.5, lambda: None)
        assert "wheel" in sim.snapshot_state()
        sim.run()
        assert "wheel" not in sim.snapshot_state()


class TestEngineIntegration:
    def test_peek_sees_wheel_head(self):
        sim = Simulator()
        sim.wheel.timeout(0.125)
        assert sim.peek() == 0.125

    def test_step_consumes_wheel_entry(self):
        sim = Simulator()
        fired = []
        sim.wheel.call_after(0.125, lambda: fired.append(True))
        sim.step()
        assert sim.now == 0.125 and fired == [True]

    def test_run_until_complete_timeout_via_wheel(self):
        sim = Simulator()

        def sleeper():
            yield sim.wheel.timeout(10.0)

        proc = sim.process(sleeper())
        with pytest.raises(SimulationError, match="timeout"):
            sim.run_until_complete(proc, timeout=1.0)

    def test_deadlock_still_detected_with_spent_wheel(self):
        sim = Simulator()

        def waiter():
            yield sim.wheel.timeout(0.1)
            yield sim.event()  # never succeeds

        proc = sim.process(waiter())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(proc, timeout=5.0)
