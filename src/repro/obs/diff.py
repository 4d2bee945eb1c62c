"""Run-diff gate for ``repro.obs`` report documents.

Usage (the human summary of the CI observability job, and by hand when
chasing a perf bug)::

    python -m repro.obs diff baseline.json fresh.json

Compares a fresh report against a committed baseline
experiment-by-experiment and fails (exit 1, ``REGRESSION:`` lines on
stderr) when

* an aggregate message-latency percentile (p50/p90/p99) *rose* more than
  ``--threshold`` (default 25%), or
* an attribution share *shifted* more than ``--attr-threshold-pp``
  percentage points in either direction — time silently migrating from
  ``wire_serialization`` into ``credit_stall`` is exactly the kind of
  behavioral drift a throughput number can hide.

``--warn-only`` downgrades failures to warnings for advisory CI lanes.
The thresholds pass real model changes; CI enforces :func:`exact`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.obs.critical_path import CATEGORIES
from repro.obs.report import REPORT_SCHEMA

__all__ = ["diff", "exact", "main"]

#: default tolerated relative rise of a latency percentile.
DEFAULT_THRESHOLD = 0.25

#: default tolerated attribution-share shift, in percentage points.
DEFAULT_ATTR_THRESHOLD_PP = 5.0

#: aggregate percentile keys the gate watches (latency: higher is worse).
PERCENTILE_KEYS = ("p50", "p90", "p99")


def _check_schema(document: Dict[str, Any], label: str) -> List[str]:
    schema = document.get("schema", {})
    if schema.get("name") != REPORT_SCHEMA["name"]:
        return [f"{label}: not a {REPORT_SCHEMA['name']} document "
                f"(schema {schema!r})"]
    if schema.get("version") != REPORT_SCHEMA["version"]:
        return [f"{label}: schema version {schema.get('version')!r} != "
                f"expected {REPORT_SCHEMA['version']}"]
    return []


def diff(baseline: Dict[str, Any], fresh: Dict[str, Any],
         threshold: float = DEFAULT_THRESHOLD,
         attr_threshold_pp: float = DEFAULT_ATTR_THRESHOLD_PP) -> List[str]:
    """Return a list of human-readable failures (empty = gate passes)."""
    failures: List[str] = []
    failures += _check_schema(baseline, "baseline")
    failures += _check_schema(fresh, "fresh")
    if failures:
        return failures
    base_exps = {e["name"]: e for e in baseline.get("experiments", [])}
    fresh_exps = {e["name"]: e for e in fresh.get("experiments", [])}
    if not base_exps:
        return ["baseline document has no experiments"]
    for name, base in base_exps.items():
        current = fresh_exps.get(name)
        if current is None:
            failures.append(f"{name}: missing from fresh report")
            continue
        base_agg = base.get("aggregate") or {}
        cur_agg = current.get("aggregate") or {}

        base_lat = base_agg.get("latency_ns", {})
        cur_lat = cur_agg.get("latency_ns", {})
        for key in PERCENTILE_KEYS:
            base_value = base_lat.get(key)
            cur_value = cur_lat.get(key)
            if not base_value or cur_value is None:
                continue
            change = (cur_value - base_value) / base_value
            if change > threshold:
                failures.append(
                    f"{name}: latency {key} rose {change:.1%} past the "
                    f"{threshold:.0%} gate ({base_value:,.0f}ns -> "
                    f"{cur_value:,.0f}ns)")

        base_shares = base_agg.get("attribution", {}).get("shares", {})
        cur_shares = cur_agg.get("attribution", {}).get("shares", {})
        if base_shares and cur_shares:
            for category in CATEGORIES:
                shift_pp = 100.0 * (cur_shares.get(category, 0.0)
                                    - base_shares.get(category, 0.0))
                if abs(shift_pp) > attr_threshold_pp:
                    failures.append(
                        f"{name}: {category} share shifted "
                        f"{shift_pp:+.1f}pp past the "
                        f"{attr_threshold_pp:.0f}pp gate "
                        f"({100.0 * base_shares.get(category, 0.0):.1f}% "
                        f"-> "
                        f"{100.0 * cur_shares.get(category, 0.0):.1f}%)")
    return failures


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


def exact(baseline: Dict[str, Any], fresh: Dict[str, Any]) -> List[str]:
    """The enforcing gate: each baseline experiment's ``aggregate`` must
    equal the fresh one (the simulation is deterministic); a failure
    names the experiment and the first differing key."""
    failures = _check_schema(baseline, "baseline") + _check_schema(
        fresh, "fresh")
    if failures:
        return failures
    fresh_exps = {e["name"]: e for e in fresh.get("experiments", [])}
    for base in baseline.get("experiments", []):
        name = base["name"]
        if name not in fresh_exps:
            failures.append(f"{name}: missing from fresh report")
            continue
        where = _first_difference(base.get("aggregate"),
                                  fresh_exps[name].get("aggregate"),
                                  "aggregate")
        if where:
            failures.append(f"{name}: {where} differs from the baseline")
    return failures


def _summary_line(name: str, entry: Dict[str, Any]) -> str:
    agg = entry.get("aggregate") or {}
    attribution = agg.get("attribution", {})
    latency = agg.get("latency_ns", {})
    top = attribution.get("top", "?")
    p99 = latency.get("p99")
    p99_txt = f"{p99:,.0f}ns" if p99 is not None else "n/a"
    return f"{name}: top={top} p99={p99_txt} runs={agg.get('runs', 0)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs diff",
        description="Fail if a fresh obs report regressed past the "
                    "committed baseline.",
    )
    parser.add_argument("baseline", help="committed baseline report JSON")
    parser.add_argument("fresh", help="freshly generated report JSON")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="tolerated relative latency-percentile rise "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--attr-threshold-pp", type=float,
                        default=DEFAULT_ATTR_THRESHOLD_PP,
                        help="tolerated attribution-share shift in "
                             "percentage points (default 5.0)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0 (advisory "
                             "CI lanes)")
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.fresh) as fh:
        fresh = json.load(fh)

    fresh_exps = {e["name"]: e for e in fresh.get("experiments", [])}
    for name, entry in fresh_exps.items():
        print(_summary_line(name, entry))

    failures = diff(baseline, fresh, threshold=args.threshold,
                    attr_threshold_pp=args.attr_threshold_pp)
    if failures:
        print()
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if args.warn_only:
            print("obs diff: regressions found (warn-only mode)",
                  file=sys.stderr)
            return 0
        return 1
    print(f"\nobs diff passed (latency {args.threshold:.0%}, "
          f"attribution {args.attr_threshold_pp:.0f}pp)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
