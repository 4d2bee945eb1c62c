"""Latency summaries: exact percentiles and the large-N histogram.

Every number in a telemetry snapshot is harvested from plain attributes
of the simulated objects (see :mod:`repro.telemetry.core`), so this
module holds only what summarises a *population* of samples:

* :func:`percentile` — the exact q-quantile of a small sample;
* :func:`latency_summary` — count/mean/min/max plus p50/p90/p99, exact
  up to :data:`EXACT_PERCENTILE_MAX` samples;
* :class:`Histogram` — fixed upper-bound buckets with
  count/sum/min/max, whose interpolated percentile keeps
  :func:`latency_summary` O(n) beyond that.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

__all__ = [
    "Histogram",
    "DEFAULT_NS_BUCKETS",
    "EXACT_PERCENTILE_MAX",
    "percentile",
    "latency_summary",
]

#: default histogram buckets for nanosecond durations (1us .. 100ms).
DEFAULT_NS_BUCKETS = (
    1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000,
)

#: largest sample count for which :func:`latency_summary` sorts the raw
#: values; above this it switches to fixed-bucket interpolation.
EXACT_PERCENTILE_MAX = 10_000


def percentile(values: Sequence[float], q: float) -> float:
    """Exact q-quantile (``0 <= q <= 1``) with linear interpolation.

    Sorts a copy, so intended for small-N summaries; large populations
    should go through a :class:`Histogram` and its
    :meth:`Histogram.percentile` estimate instead.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not values:
        raise ValueError("percentile() of empty sequence")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    frac = rank - lo
    if frac == 0.0:
        return float(ordered[lo])
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * frac


def latency_summary(values: Sequence[float],
                    quantiles: Sequence[float] = (0.5, 0.9, 0.99),
                    exact_max: int = EXACT_PERCENTILE_MAX,
                    buckets: Sequence[float] = DEFAULT_NS_BUCKETS
                    ) -> Dict[str, Any]:
    """count/mean/min/max plus p50/p90/p99 for a latency population.

    Exact (sorted) percentiles for small populations; fixed-bucket
    interpolation via :meth:`Histogram.percentile` beyond ``exact_max``,
    so summarizing millions of message latencies stays O(n).
    """
    count = len(values)
    out: Dict[str, Any] = {"count": count}
    if not count:
        return out
    out["mean"] = sum(values) / count
    out["min"] = min(values)
    out["max"] = max(values)
    if count <= exact_max:
        ordered = sorted(values)
        for q in quantiles:
            out[f"p{round(q * 100):d}"] = percentile(ordered, q)
    else:
        hist = Histogram("latency", buckets)
        for v in values:
            hist.observe(v)
        for q in quantiles:
            out[f"p{round(q * 100):d}"] = hist.percentile(q)
    return out


class Histogram:
    """Fixed-bucket histogram with running count/sum/min/max.

    ``buckets`` are inclusive upper bounds; one implicit overflow bucket
    catches everything larger.  Bucket counts are cumulative-free (each
    observation lands in exactly one bucket), matching what a plotting
    script wants.
    """

    __slots__ = ("name", "buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_NS_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(
                f"histogram buckets must be sorted and non-empty: {buckets}")
        self.name = name
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the q-quantile by linear interpolation inside the
        bucket containing it; the overflow bucket interpolates between
        the last bound and the observed maximum.  Bounded error (one
        bucket width) at O(buckets) cost — the large-N complement of the
        exact :func:`percentile`.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            raise ValueError("percentile() of empty histogram")
        target = q * self.count
        seen = 0.0
        lower = float(self.min) if self.min is not None else 0.0
        for i, bound in enumerate(self.buckets):
            upper = float(bound)
            in_bucket = self.counts[i]
            if in_bucket and seen + in_bucket >= target:
                lo = max(lower, float(self.min))
                hi = min(upper, float(self.max))
                frac = (target - seen) / in_bucket
                return lo + (hi - lo) * frac
            seen += in_bucket
            lower = upper
        # Overflow bucket: between the last bound and the observed max.
        in_bucket = self.counts[-1]
        lo = max(lower, float(self.min))
        hi = float(self.max)
        frac = (target - seen) / in_bucket if in_bucket else 1.0
        return lo + (hi - lo) * min(1.0, max(0.0, frac))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": {
                **{str(b): c for b, c in zip(self.buckets, self.counts)},
                "+Inf": self.counts[-1],
            },
        }
