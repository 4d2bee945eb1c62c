"""Regression gate for ``BENCH_kernel.json`` trajectories.

Usage (the CI ``perf`` job)::

    python -m repro.bench.compare BENCH_kernel.json fresh.json

Compares a freshly measured kernel-bench document against the committed
baseline, direction-aware: ``higher_is_better`` metrics (events/sec,
packets/sec) fail on a drop, wall-clock metrics fail on a rise.  The
default threshold of 25% absorbs runner-to-runner noise; genuine hot-path
regressions are an order of magnitude larger.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List

__all__ = ["compare", "breached", "main"]

#: default tolerated relative regression before the gate fails.
DEFAULT_THRESHOLD = 0.25


def _fmt(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 100 else f"{value:.3f}"


def compare(baseline: Dict[str, Any], fresh: Dict[str, Any],
            threshold: float = DEFAULT_THRESHOLD) -> List[str]:
    """Return a list of human-readable failures (empty = gate passes)."""
    failures: List[str] = []
    base_benches = baseline.get("benchmarks", {})
    fresh_benches = fresh.get("benchmarks", {})
    if not base_benches:
        return ["baseline document has no benchmarks"]
    for name, base in base_benches.items():
        current = fresh_benches.get(name)
        if current is None:
            failures.append(f"{name}: missing from fresh run")
            continue
        base_value = float(base["value"])
        cur_value = float(current["value"])
        if base_value <= 0:
            continue
        higher_is_better = bool(base.get("higher_is_better", True))
        change = (cur_value - base_value) / base_value
        regression = -change if higher_is_better else change
        if regression > threshold:
            direction = "dropped" if higher_is_better else "rose"
            failures.append(
                f"{name}: {direction} {regression:.1%} past the "
                f"{threshold:.0%} gate ({_fmt(base_value)} -> "
                f"{_fmt(cur_value)} {base.get('unit', '')})".rstrip()
            )
    return failures


def breached(failures: List[str]) -> List[str]:
    """The benchmark names that breached the gate, in report order.

    Every failure string starts with ``<name>:`` — this extracts the
    names so callers (and the CLI's exit summary) can say *which*
    benchmark failed instead of only that one did.
    """
    return [failure.split(":", 1)[0] for failure in failures]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.compare",
        description="Fail if a fresh kernel-bench run regressed past the "
                    "committed baseline.",
    )
    parser.add_argument("baseline", help="committed BENCH_kernel.json")
    parser.add_argument("fresh", help="freshly measured kernel-bench JSON")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="tolerated relative regression "
                             "(default 0.25 = 25%%)")
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.fresh) as fh:
        fresh = json.load(fh)

    for name, bench in fresh.get("benchmarks", {}).items():
        base = baseline.get("benchmarks", {}).get(name)
        base_txt = _fmt(float(base["value"])) if base else "n/a (new)"
        print(f"{name}: {_fmt(float(bench['value']))} "
              f"{bench.get('unit', '')} (baseline {base_txt})")

    failures = compare(baseline, fresh, threshold=args.threshold)
    if failures:
        print()
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        names = ", ".join(breached(failures))
        print(f"\nperf gate FAILED (threshold {args.threshold:.0%}): "
              f"breached by {names}", file=sys.stderr)
        return 1
    print(f"\nperf gate passed (threshold {args.threshold:.0%})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
