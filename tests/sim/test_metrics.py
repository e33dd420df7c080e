"""The counter mechanism: Counters sets and the per-simulator registry."""

from repro import report, trace
from repro.sim.engine import Simulator
from repro.sim.metrics import Counters, Metrics


class TestCounters:
    def test_start_at_zero_in_declaration_order(self):
        c = Counters("b", "a")
        assert c.snapshot() == {"b": 0, "a": 0}
        assert list(c.snapshot()) == ["b", "a"]

    def test_bump_reset_snapshot(self):
        c = Counters("hits", "misses")
        c.hits += 3
        c.misses += 1
        snap = c.snapshot()
        assert snap == {"hits": 3, "misses": 1}
        c.reset()
        assert c.snapshot() == {"hits": 0, "misses": 0}
        assert snap == {"hits": 3, "misses": 1}  # a copy, not a view


class TestMetrics:
    def test_group_sums_sources_key_by_key(self):
        m = Metrics()
        m.register("g", lambda: {"x": 1, "y": 2})
        m.register("g", lambda: {"x": 10, "y": 20})
        assert m.snapshot() == {"g": {"x": 11, "y": 22}}

    def test_registration_order(self):
        m = Metrics()
        m.register("second", lambda: {"k": 1})
        m.register("first", lambda: {"k": 1})
        m.register("second", lambda: {"z": 1, "k": 1})
        snap = m.snapshot()
        assert list(snap) == ["second", "first"]
        assert list(snap["second"]) == ["k", "z"]

    def test_sources_are_read_at_snapshot_time(self):
        c = Counters("n")
        m = Metrics()
        m.register("g", c.snapshot)
        c.n += 4
        assert m.snapshot() == {"g": {"n": 4}}

    def test_empty_registry(self):
        assert Metrics().snapshot() == {}


class TestEngineStatsWalk:
    def test_group_absent_until_registered(self):
        sim = Simulator()
        stats = trace.engine_stats(sim)
        assert "faults" not in stats
        assert "widgets" not in stats

    def test_new_group_reaches_stats_and_report(self):
        sim = Simulator()
        widgets = Counters("spins", "stalls")
        sim.metrics.register("widgets", widgets.snapshot)
        widgets.spins += 1234
        stats = trace.engine_stats(sim)
        assert stats["widgets"] == {"spins": 1234, "stalls": 0}
        out = report.format_engine_stats(stats)
        assert "widgets: spins=1,234  stalls=0" in out.splitlines()

    def test_report_flattens_nested_counts(self):
        out = report.format_engine_stats(
            {"events": 1, "g": {"rules": 2, "injected": {"a": 1, "b": 3}, "none": {}}}
        )
        assert out.splitlines()[1] == "g: rules=2  injected.a=1  injected.b=3"
