"""Run-diff gate for ``repro.obs`` report documents.

Usage (the CI observability gate, and by hand when chasing a perf
bug)::

    python -m repro.obs diff baseline.json fresh.json

The simulation is deterministic, so the check is exact: each baseline
experiment's ``aggregate`` must equal the fresh one (``==``), the
schema must match, and an experiment missing from the fresh report
fails.  Any difference is a model change; when one is intended,
regenerate the baseline (``repro-bench ... --report``, strip ``runs``)
in the same change.

The command prints one summary line per fresh experiment and exits 1
iff anything differs.  For each experiment that differs it names the
first differing key, the p50/p90/p99 change in %, and every non-zero
attribution-share shift in percentage points, largest first — time
migrating from ``wire_serialization`` into ``credit_stall`` is exactly
the kind of behavioral drift a throughput number can hide.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.critical_path import CATEGORIES
from repro.obs.report import REPORT_SCHEMA

__all__ = ["check_schema", "diff", "summary_line"]

#: aggregate latency percentiles whose change a difference reports.
PERCENTILE_KEYS = ("p50", "p90", "p99")


def check_schema(document: Any, label: str) -> List[str]:
    schema = document.get("schema", {}) if type(document) is dict else {}
    if type(schema) is not dict or schema.get("name") != REPORT_SCHEMA["name"]:
        return [f"{label}: not a {REPORT_SCHEMA['name']} document "
                f"(schema {schema!r})"]
    if schema.get("version") != REPORT_SCHEMA["version"]:
        return [f"{label}: schema version {schema.get('version')!r} != "
                f"expected {REPORT_SCHEMA['version']}"]
    return []


def _first_difference(base: Any, fresh: Any, path: str) -> Optional[str]:
    """The first key path where ``fresh`` differs from ``base``, if any."""
    if type(base) is not dict or type(fresh) is not dict:
        return None if base == fresh else path
    for key in {**base, **fresh}:  # baseline order, then fresh-only keys
        where = f"{path}.{key}"
        if key not in base or key not in fresh:
            return where
        found = _first_difference(base[key], fresh[key], where)
        if found:
            return found
    return None


def _changes(base: Dict[str, Any], fresh: Dict[str, Any]) -> List[str]:
    """The latency-percentile changes and attribution-share shifts
    between two differing aggregates, one indented line each."""
    lines: List[str] = []
    base_lat = base.get("latency_ns", {})
    fresh_lat = fresh.get("latency_ns", {})
    moves = [f"{key} {(fresh_lat[key] - base_lat[key]) / base_lat[key]:+.1%}"
             for key in PERCENTILE_KEYS
             if base_lat.get(key) and fresh_lat.get(key) is not None]
    if moves:
        lines.append("  latency " + ", ".join(moves))
    base_shares = base.get("attribution", {}).get("shares", {})
    fresh_shares = fresh.get("attribution", {}).get("shares", {})
    shifts = [(fresh_shares.get(c, 0.0), base_shares.get(c, 0.0), c)
              for c in CATEGORIES
              if fresh_shares.get(c, 0.0) != base_shares.get(c, 0.0)]
    shifts.sort(key=lambda s: -abs(s[0] - s[1]))
    lines += [f"  {c} share {100.0 * (new - old):+.1f}pp "
              f"({100.0 * old:.1f}% -> {100.0 * new:.1f}%)"
              for new, old, c in shifts]
    return lines


def diff(baseline: Dict[str, Any], fresh: Dict[str, Any]) -> List[str]:
    """Every way ``fresh`` differs from ``baseline``, as human-readable
    lines (empty = the gate passes).  A differing experiment contributes
    ``"<name>: <first differing key> differs from the baseline"``
    followed by its :func:`_changes` lines."""
    failures = check_schema(baseline, "baseline") + check_schema(
        fresh, "fresh")
    if failures:
        return failures
    if not baseline.get("experiments"):
        return ["baseline document has no experiments"]
    fresh_exps = {e["name"]: e for e in fresh.get("experiments", [])}
    for base in baseline["experiments"]:
        name = base["name"]
        if name not in fresh_exps:
            failures.append(f"{name}: missing from fresh report")
            continue
        base_agg = base.get("aggregate")
        fresh_agg = fresh_exps[name].get("aggregate")
        where = _first_difference(base_agg, fresh_agg, "aggregate")
        if where:
            failures.append(f"{name}: {where} differs from the baseline")
            failures += _changes(base_agg or {}, fresh_agg or {})
    return failures


def summary_line(name: str, entry: Dict[str, Any]) -> str:
    agg = entry.get("aggregate") or {}
    attribution = agg.get("attribution", {})
    latency = agg.get("latency_ns", {})
    top = attribution.get("top", "?")
    p99 = latency.get("p99")
    p99_txt = f"{p99:,.0f}ns" if p99 is not None else "n/a"
    return f"{name}: top={top} p99={p99_txt} runs={agg.get('runs', 0)}"
