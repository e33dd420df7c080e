"""Measurement probes used by workloads and benchmarks.

These are plain accumulators -- they never schedule events -- so probing
is free of simulation side effects.

One percentile recorder
-----------------------
Every latency distribution in the simulator -- flood ping, the netperf
RR loops, open-loop serving, perfbench -- is recorded into a
:class:`LogHistogram`:
the HDR-histogram-shaped answer to "percentiles at millions of samples".
Fixed log-spaced buckets (128 sub-buckets per power of two) give O(1)
``record``, O(buckets) ``percentile``, exact count/mean/min/max, and
element-wise merging across probes and reps.  No per-sample list is
kept anywhere.  The bucket index is a pure function of the value, so
goldens can pin *bucket indices* (exactly stable across platforms)
rather than floats.
"""

from __future__ import annotations

import math

__all__ = ["LogHistogram", "TimeSeries"]


class TimeSeries:
    """(time, value) samples, e.g. transactions/sec during migration."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, t: float, value: float) -> None:
        """Append one (time, value) sample; times must not go backwards."""
        if self.times and t < self.times[-1]:
            raise ValueError("samples must be recorded in time order")
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))


#: sub-bucket resolution: 2**7 sub-buckets per power of two.
_SUB_BITS = 7
_SUB_COUNT = 1 << _SUB_BITS  # 128
_SUB_SCALE = float(1 << (_SUB_BITS + 1))  # (m - 0.5) * 256 -> [0, 128)
#: sentinel bucket for exact zero (frexp(0.0) would collide with the
#: boundary between the e=0 and e=-1 octaves).
_ZERO_INDEX = -(1 << 60)


class LogHistogram:
    """Fixed-bucket logarithmic histogram (HDR-style).

    Values are binned by ``math.frexp``: a value ``v = m * 2**e`` with
    ``m in [0.5, 1)`` lands in sub-bucket ``int((m - 0.5) * 256)`` of
    octave ``e``, giving 128 log-spaced buckets per power of two.  The
    bucket index ``(e << 7) + sub`` is monotone in ``v`` (negative
    exponents included), so percentile lookup is a walk over sorted
    indices and goldens can pin indices exactly.

    Guarantees:

    * ``record`` is O(1) (one frexp + one dict increment) and retains no
      per-sample state -- memory is O(distinct buckets), bounded by the
      dynamic range of the data (128 buckets per decade-ish octave).
    * bucket width / lower bound <= 1/128, so the bucket *midpoint*
      returned by :meth:`percentile` is within ``REL_ERROR`` (1/128,
      under 1%) of any exact sample in the bucket.
    * count/total/min/max are tracked exactly: ``mean`` is exact, and
      ``percentile(0)`` / ``percentile(100)`` return the exact min/max.
    * two histograms merge by element-wise bucket addition
      (:meth:`merge` is associative and commutative), so probes and
      reps combine without precision loss.
    """

    #: documented relative-error bound of percentile() vs an exact
    #: same-rank sorted percentile (bucket half-width / lower bound).
    REL_ERROR = 1.0 / (1 << _SUB_BITS)  # 1/128, < 1%

    __slots__ = ("name", "buckets", "count", "total", "total_sq", "min", "max")

    def __init__(self, name: str = ""):
        self.name = name
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.min = math.inf
        self.max = -math.inf

    @staticmethod
    def bucket_index(value: float) -> int:
        """The bucket index for ``value`` (monotone in value)."""
        if value == 0.0:
            return _ZERO_INDEX
        m, e = math.frexp(value)
        return (e << _SUB_BITS) + int((m - 0.5) * _SUB_SCALE)

    @staticmethod
    def bucket_value(index: int) -> float:
        """Representative (midpoint) value of bucket ``index``."""
        if index == _ZERO_INDEX:
            return 0.0
        e, sub = index >> _SUB_BITS, index & (_SUB_COUNT - 1)
        # bucket spans [0.5 + sub/256, 0.5 + (sub+1)/256) * 2**e
        return math.ldexp(0.5 + (sub + 0.5) / _SUB_SCALE, e)

    def record(self, value: float) -> None:
        """Record one sample; O(1), no per-sample state retained."""
        if value < 0:
            raise ValueError(f"negative sample: {value}")
        idx = self.bucket_index(value)
        buckets = self.buckets
        buckets[idx] = buckets.get(idx, 0) + 1
        self.count += 1
        self.total += value
        self.total_sq += value * value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Exact mean of all recorded samples."""
        if not self.count:
            raise ValueError("no samples")
        return self.total / self.count

    @property
    def stdev(self) -> float:
        """Population standard deviation (from exact running moments)."""
        if not self.count:
            raise ValueError("no samples")
        var = self.total_sq / self.count - (self.total / self.count) ** 2
        return math.sqrt(max(var, 0.0))

    def percentile_index(self, p: float) -> int:
        """Bucket index holding the p-th percentile (nearest-rank).

        Platform-exact -- this is what goldens pin.
        """
        if not self.count:
            raise ValueError("no samples")
        if not 0 <= p <= 100:
            raise ValueError("percentile in [0, 100]")
        rank = max(1, math.ceil(p / 100.0 * self.count))
        seen = 0
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if seen >= rank:
                return idx
        raise AssertionError("bucket counts inconsistent")  # pragma: no cover

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, within :data:`REL_ERROR` of exact.

        ``p=0`` and ``p=100`` return the exact min/max; interior
        percentiles return the midpoint of the bucket holding the
        nearest-rank sample (rank ``ceil(p/100 * n)``).
        """
        if not self.count:
            raise ValueError("no samples")
        if p <= 0:
            return self.min
        if p >= 100:
            return self.max
        return self.bucket_value(self.percentile_index(p))

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` into self (element-wise bucket add); returns self."""
        buckets = self.buckets
        for idx, n in other.buckets.items():
            buckets[idx] = buckets.get(idx, 0) + n
        self.count += other.count
        self.total += other.total
        self.total_sq += other.total_sq
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self

    def to_dict(self) -> dict:
        """JSON-able state (sorted bucket pairs), mergeable via :meth:`from_dict`."""
        return {
            "count": self.count,
            "total": self.total,
            "total_sq": self.total_sq,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "buckets": [[idx, self.buckets[idx]] for idx in sorted(self.buckets)],
        }

    @classmethod
    def from_dict(cls, state: dict, name: str = "") -> "LogHistogram":
        hist = cls(name)
        hist.count = state["count"]
        hist.total = state["total"]
        hist.total_sq = state["total_sq"]
        if hist.count:
            hist.min = state["min"]
            hist.max = state["max"]
        hist.buckets = {int(idx): int(n) for idx, n in state["buckets"]}
        return hist

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover
        return f"LogHistogram({self.name}, n={self.count})"

