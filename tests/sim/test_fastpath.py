"""Fast-path invariants: immediate run queue ordering and the event
counter."""


def _tag(order, label):
    return lambda ev: order.append(label)


class TestSameTimeOrdering:
    def test_heap_and_immediate_fire_in_scheduling_order(self, sim):
        """Same-timestamp events fire in FIFO *scheduling* order whether
        they sit on the heap (delayed) or the immediate run queue
        (zero-delay succeed / timeout(0))."""
        order = []
        # Heap entries for t=1.0, created first (lowest sequence numbers).
        sim.timeout(1.0).callbacks.append(_tag(order, "heap-1"))
        sim.timeout(1.0).callbacks.append(_tag(order, "heap-2"))

        def driver():
            yield sim.timeout(1.0)  # resumes at t=1.0, after heap-1/heap-2
            order.append("driver")
            for i in (1, 2):
                ev = sim.event()
                ev.callbacks.append(_tag(order, f"imm-{i}"))
                ev.succeed()  # immediate queue, same timestamp
            yield sim.timeout(0)  # behind the two immediates
            order.append("driver-after")

        sim.process(driver())
        sim.run()
        assert order == ["heap-1", "heap-2", "driver", "imm-1", "imm-2", "driver-after"]

    def test_zero_delay_succeed_fires_before_later_heap_event(self, sim):
        order = []
        sim.timeout(2.0).callbacks.append(_tag(order, "late-heap"))
        ev = sim.event()
        ev.callbacks.append(_tag(order, "immediate"))
        ev.succeed()
        sim.run()
        assert order == ["immediate", "late-heap"]
        assert sim.now == 2.0

    def test_immediate_queue_preserves_fifo_among_many(self, sim):
        order = []
        for i in range(20):
            ev = sim.event()
            ev.callbacks.append(_tag(order, i))
            ev.succeed()
        sim.run()
        assert order == list(range(20))

    def test_delayed_succeed_goes_through_heap(self, sim):
        order = []
        a = sim.event()
        a.callbacks.append(_tag(order, "delayed"))
        a.succeed(delay=1.0)
        b = sim.event()
        b.callbacks.append(_tag(order, "now"))
        b.succeed()
        sim.run()
        assert order == ["now", "delayed"]

    def test_event_count_counts_all_calendar_entries(self, sim):
        assert sim.event_count == 0

        def worker():
            yield sim.timeout(1.0)
            yield sim.timeout(0)

        sim.process(worker())
        sim.run()
        # init resume + two timeouts + two process-resume steps are all
        # popped off the calendar; the exact total is an implementation
        # detail, but it must be positive and monotonic.
        first = sim.event_count
        assert first > 0
        sim.timeout(0)
        sim.run()
        assert sim.event_count == first + 1

