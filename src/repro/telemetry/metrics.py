"""Latency summaries: exact percentiles of a sample population.

Every number in a telemetry snapshot is harvested from plain attributes
of the simulated objects (see :mod:`repro.telemetry.core`), so this
module holds only what summarises a *population* of samples:

* :func:`percentile` — the exact q-quantile of a sample;
* :func:`latency_summary` — count/mean/min/max plus p50/p90/p99.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

__all__ = [
    "percentile",
    "latency_summary",
]


def _quantile(ordered: Sequence[float], q: float) -> float:
    """The q-quantile of an already sorted, non-empty sequence."""
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    frac = rank - lo
    if frac == 0.0:
        return float(ordered[lo])
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * frac


def percentile(values: Sequence[float], q: float) -> float:
    """Exact q-quantile (``0 <= q <= 1``) with linear interpolation."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not values:
        raise ValueError("percentile() of empty sequence")
    return _quantile(sorted(values), q)


def latency_summary(values: Sequence[float]) -> Dict[str, Any]:
    """count/mean/min/max plus exact p50/p90/p99 for a latency population."""
    count = len(values)
    out: Dict[str, Any] = {"count": count}
    if not count:
        return out
    ordered = sorted(values)
    out["mean"] = sum(values) / count
    out["min"] = ordered[0]
    out["max"] = ordered[-1]
    for key, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
        out[key] = _quantile(ordered, q)
    return out
