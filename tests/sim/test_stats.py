"""Tests for measurement probes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import LogHistogram, TimeSeries


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

