#!/usr/bin/env python3
"""Render the ladder's tables from raw records alone.

    python3 benchmarks/ladder/report.py OUT_DIR/raw.jsonl [--against baseline.json]

``raw.jsonl`` (one JSON line per child, written by ``run.py --out``) is
the artifact; the end-to-end table, the per-layer share table and the
interaction table below are all derived from it, so they can be rebuilt
or re-cut without running anything again.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (needs this directory on the path)
import spec  # noqa: E402


def load(path: str) -> List[Dict[str, Any]]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def end_to_end_table(records: List[Dict[str, Any]],
                     baseline: Dict[str, Any]) -> List[str]:
    lines = ["## End-to-end (tracing off; times paced, second-best child)", "",
             "| pass | workload | metric | kind | value | median | q1 | q3 | n "
             "| vs baseline |", "|---|---|---|---|---|---|---|---|---|---|"]
    kinds = {m["name"]: m for m in spec.end_to_end()}
    timed = [r for r in records
             if r["kind"] == "workload" and not r["profiled"]]
    for label in sorted({r["label"] for r in timed}):
        for workload in run.WORKLOAD_NAMES:
            children = [r for r in timed if r["label"] == label
                        and r["workload"] == workload]
            if not children:
                continue
            summary = run.summarise(children)
            base = baseline.get("workloads", {}).get(workload, {}).get(
                "end_to_end", {})
            for name, value in summary["metrics"].items():
                detail = summary["detail"].get(name, {})
                change = ""
                if base.get(name):
                    change = f"{(value - base[name]) / base[name]:+.2%}"
                quartiles = " | ".join(
                    f"{detail[key]:.4f}" if key in detail else ""
                    for key in ("median", "q1", "q3"))
                lines.append(
                    f"| {label} | {workload} | {name} ({kinds[name]['unit']}) "
                    f"| {kinds[name]['kind']} | {value:.4f} | {quartiles} | "
                    f"{detail.get('n', len(children))} | {change} |")
            for name, value in summary["derived"].items():
                lines.append(f"| {label} | {workload} | {name} | derived | "
                             f"{value:.4f} | | | | | not gated |")
            lines.append(f"| {label} | {workload} | failed_share | check | "
                         f"{len(summary['failed'])}/{summary['attempted']} "
                         "| | | | | |")
    return lines


def share_table(records: List[Dict[str, Any]]) -> List[str]:
    traced = {r["workload"]: r for r in records
              if r["kind"] == "workload" and r["profiled"]}
    workloads = [w for w in run.WORKLOAD_NAMES if w in traced]
    lines = ["## Host self time by layer (traced pass; share of profiled time)",
             "", "| layer | " + " | ".join(workloads) + " |",
             "|---|" + "---|" * len(workloads)]
    for layer in spec.LAYERS:
        cells = []
        for workload in workloads:
            profile = traced[workload]["profile"]
            share = profile["self_s"][layer] / profile["total_s"]
            cells.append(f"{share:.1%}")
        lines.append(f"| {layer} | " + " | ".join(cells) + " |")
    for label, value in (
            ("profiled s", lambda r: f"{r['profile']['total_s']:.2f}"),
            ("Mcalls", lambda r: f"{r['profile']['total_calls'] / 1e6:.3f}"),
            ("calls/event", lambda r: "%.1f" % (
                r["profile"]["total_calls"]
                / max(1, r["counters"]["sim.events"])))):
        lines.append(f"| {label} | "
                     + " | ".join(value(traced[w]) for w in workloads) + " |")
    return lines


def interaction_table(records: List[Dict[str, Any]]) -> List[str]:
    rungs = next((r["rungs"] for r in records if r["kind"] == "rungs"), {})
    lines = ["## Interactions (written before measuring) and the rungs", "",
             "| layer metric | value | should move | on | should not move |",
             "|---|---|---|---|---|"]
    for metric in spec.per_layer():
        if metric["source"] == "counters":
            continue
        moves = metric["moves"]
        value = rungs.get(metric["name"])
        shown = "per workload" if value is None else \
            f"{value:.4f} {metric['unit']}"
        lines.append(f"| {metric['name']} | {shown} | "
                     f"{moves['should_move']} | {moves['on']} | "
                     f"{moves['should_not_move']} |")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("raw", help="raw.jsonl written by run.py --out")
    parser.add_argument("--against", help="a baseline.json to compare with")
    args = parser.parse_args()
    records = load(args.raw)
    baseline: Dict[str, Any] = {}
    if args.against:
        with open(args.against) as fh:
            baseline = json.load(fh)
    env = next((r for r in records if r["kind"] == "environment"), {})
    noisy = sum(1 for r in records if r.get("noisy"))
    print(f"# Ladder report: commit {env.get('git_commit', '?')}, python "
          f"{env.get('python', '?')}, numpy {env.get('numpy', '?')}, "
          f"{env.get('nproc', '?')} cores, seed {env.get('seed', '?')}, "
          f"{noisy} noisy children\n")
    for table in (end_to_end_table(records, baseline), share_table(records),
                  interaction_table(records)):
        print("\n".join(table), end="\n\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
