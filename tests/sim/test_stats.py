"""Tests for measurement probes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import (
    Counter,
    Deadline,
    LatencyProbe,
    LogHistogram,
    ThroughputProbe,
    TimeSeries,
    summarize,
)


class TestCounter:
    def test_add(self):
        c = Counter("x")
        c.add()
        c.add(4)
        assert c.value == 5

    def test_negative_rejected(self):
        c = Counter()
        with pytest.raises(ValueError):
            c.add(-1)


class TestTimeSeries:
    def test_record_and_iterate(self):
        ts = TimeSeries()
        ts.record(0.0, 1.0)
        ts.record(1.0, 2.0)
        assert list(ts) == [(0.0, 1.0), (1.0, 2.0)]
        assert len(ts) == 2

    def test_out_of_order_rejected(self):
        ts = TimeSeries()
        ts.record(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(4.0, 1.0)


class TestLatencyProbe:
    def test_mean(self):
        p = LatencyProbe()
        for v in (1e-6, 2e-6, 3e-6):
            p.record(v)
        assert p.mean == pytest.approx(2e-6)
        assert p.mean_us == pytest.approx(2.0)
        assert p.count == 3

    def test_negative_rejected(self):
        p = LatencyProbe()
        with pytest.raises(ValueError):
            p.record(-1.0)

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            _ = LatencyProbe().mean

    def test_percentile(self):
        p = LatencyProbe()
        for v in range(1, 101):
            p.record(float(v))
        assert p.percentile(50) == pytest.approx(50.5)
        assert p.percentile(0) == 1.0
        assert p.percentile(100) == 100.0

    def test_percentile_bounds(self):
        p = LatencyProbe()
        p.record(1.0)
        with pytest.raises(ValueError):
            p.percentile(101)


class TestThroughputProbe:
    def test_rate(self):
        p = ThroughputProbe()
        p.record(100, 0.0)
        p.record(100, 1.0)
        p.record(100, 2.0)
        assert p.rate() == pytest.approx(150.0)

    def test_mbps(self):
        p = ThroughputProbe()
        p.record(0, 0.0)
        p.record(1_000_000, 8.0)
        assert p.mbps() == pytest.approx(1.0)

    def test_no_samples_raises(self):
        with pytest.raises(ValueError):
            ThroughputProbe().rate()

    def test_zero_interval_raises(self):
        p = ThroughputProbe()
        p.record(10, 1.0)
        with pytest.raises(ValueError):
            p.rate()


#: positive finite samples spanning ~24 decades -- exercises negative
#: and positive frexp exponents and the octave boundaries.
_samples = st.floats(min_value=1e-12, max_value=1e12, allow_nan=False, allow_infinity=False)


def _nearest_rank(sorted_samples, p):
    rank = max(1, math.ceil(p / 100.0 * len(sorted_samples)))
    return sorted_samples[rank - 1]


class TestLogHistogram:
    def test_bucket_index_monotone(self):
        values = [1e-9, 0.4999, 0.5, 0.9999, 1.0, 1.5, 2.0, 3.7, 1e6]
        indices = [LogHistogram.bucket_index(v) for v in values]
        assert indices == sorted(indices)
        assert LogHistogram.bucket_index(0.0) < indices[0]

    def test_zero_sentinel_roundtrip(self):
        h = LogHistogram()
        h.record(0.0)
        assert h.percentile(50) == 0.0
        assert h.min == 0.0 and h.max == 0.0

    @given(st.lists(_samples, min_size=1, max_size=64))
    def test_bucket_value_within_rel_error(self, values):
        for v in values:
            mid = LogHistogram.bucket_value(LogHistogram.bucket_index(v))
            assert abs(mid - v) <= v * LogHistogram.REL_ERROR

    @given(
        st.lists(_samples, min_size=1, max_size=200),
        st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=200)
    def test_percentile_within_rel_error_of_exact(self, values, p):
        h = LogHistogram()
        for v in values:
            h.record(v)
        exact = _nearest_rank(sorted(values), p)
        if p <= 0:
            assert h.percentile(p) == min(values)
        elif p >= 100:
            assert h.percentile(p) == max(values)
        else:
            assert abs(h.percentile(p) - exact) <= exact * LogHistogram.REL_ERROR

    def test_exact_moments(self):
        h = LogHistogram()
        for v in (1.0, 2.0, 3.0):
            h.record(v)
        assert h.mean == pytest.approx(2.0)
        assert h.stdev == pytest.approx(0.8164965, rel=1e-5)
        assert h.count == 3 and len(h) == 3
        assert h.min == 1.0 and h.max == 3.0

    @given(
        st.lists(_samples, min_size=1, max_size=50),
        st.lists(_samples, min_size=1, max_size=50),
        st.lists(_samples, min_size=1, max_size=50),
    )
    @settings(max_examples=50)
    def test_merge_associative_and_equals_concat(self, a, b, c):
        def hist(values):
            h = LogHistogram()
            for v in values:
                h.record(v)
            return h

        left = hist(a).merge(hist(b).merge(hist(c)))  # a + (b + c)
        right = hist(a).merge(hist(b)).merge(hist(c))  # (a + b) + c
        concat = hist(a + b + c)
        for h in (left, right):
            assert h.buckets == concat.buckets
            assert h.count == concat.count
            assert h.min == concat.min and h.max == concat.max
            assert h.total == pytest.approx(concat.total)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LogHistogram().record(-1e-9)

    def test_empty_raises(self):
        h = LogHistogram()
        with pytest.raises(ValueError):
            h.percentile(50)
        with pytest.raises(ValueError):
            _ = h.mean

    def test_dict_roundtrip(self):
        h = LogHistogram("x")
        for v in (1e-6, 2e-6, 5e-3, 0.0):
            h.record(v)
        clone = LogHistogram.from_dict(h.to_dict())
        assert clone.buckets == h.buckets
        assert clone.count == h.count
        assert clone.min == h.min and clone.max == h.max
        assert clone.percentile_index(99) == h.percentile_index(99)


class TestDeadline:
    def test_record_and_violations(self):
        d = Deadline(slo=0.002)
        assert d.record(0.001) is False
        assert d.record(0.002) is False  # exactly at the deadline is OK
        assert d.record(0.003) is True
        assert d.violations == 1 and d.count == 3
        assert d.worst == 0.003
        assert d.violation_fraction == pytest.approx(1 / 3)

    def test_merge(self):
        a, b = Deadline(0.01), Deadline(0.01)
        a.record(0.02)
        b.record(0.005)
        b.record(0.05)
        a.merge(b)
        assert a.count == 3 and a.violations == 2 and a.worst == 0.05

    def test_merge_slo_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Deadline(0.01).merge(Deadline(0.02))

    def test_bad_slo_rejected(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


class TestLatencyProbeStreaming:
    def test_cached_sort_invalidated_by_record(self):
        p = LatencyProbe()
        for v in (3.0, 1.0, 2.0):
            p.record(v)
        assert p.percentile(100) == 3.0
        p.record(10.0)  # must invalidate the cached sorted view
        assert p.percentile(100) == 10.0
        assert p.percentile(0) == 1.0


class TestSummarize:
    def test_basic(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s["n"] == 3
        assert s["min"] == 1.0
        assert s["max"] == 3.0
        assert s["mean"] == pytest.approx(2.0)
        assert s["stdev"] == pytest.approx(0.8164965, rel=1e-5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])
