"""Schema-versioned ``RunReport`` documents and their markdown rendering.

A run report is the JSON face of the critical-path analyzer: one
attribution breakdown + message-latency percentiles + per-switch-port
utilization + sanitizer summary per simulated cluster, grouped by
experiment.  The document is fully deterministic — it contains only
simulated-time quantities, never wall-clock — so two identical runs
produce *byte-identical* reports (asserted by the determinism suite) and
``python -m repro.obs diff`` checks them for equality against a
committed baseline.

Produced by ``repro-bench <experiment> --report out.json`` (via
:class:`~repro.telemetry.session.TelemetrySession`) or directly from a
cluster with ``Cluster.enable_reporting()`` + ``Cluster.run_report()``.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.obs.critical_path import CATEGORIES, attribute, critical_path
from repro.telemetry.metrics import latency_summary

__all__ = [
    "REPORT_SCHEMA",
    "build_run_report",
    "aggregate_reports",
    "build_document",
    "render_markdown",
]

#: schema stamp of every report document; bump ``version`` on layout
#: changes so ``repro.obs diff`` can refuse mismatched documents.
REPORT_SCHEMA = {"name": "repro-obs-report", "version": 1}

#: flow kinds whose post->delivery latency is a message latency (credit
#: words, finals and ring writes are control traffic).
_LATENCY_KINDS = ("data", "read")

#: cap on sanitizer messages embedded per run (full detail stays in
#: ``--sanitize`` output).
_MAX_SANITIZER_MESSAGES = 10


def build_run_report(telemetry) -> Dict[str, Any]:
    """One cluster's report over ``[0, sim.now)``: attribution +
    latencies + ports + sanitizer.

    Requires link recording (``telemetry.enable_links()`` /
    ``Cluster.enable_reporting()``) to have been active for the run.
    """
    links = telemetry.links
    if links is None:
        raise ValueError(
            "link recording is not enabled on this cluster; call "
            "Cluster.enable_reporting() (or Telemetry.enable_links()) "
            "before building endpoints")

    flows = links.flows.columns()
    kinds = [links.codes.get(kind, -1) for kind in _LATENCY_KINDS]
    latency = np.isin(flows[:, 0], kinds) & (flows[:, 5] >= 0)
    latencies = (flows[latency, 5] - flows[latency, 4]).tolist()
    snapshot = telemetry.snapshot()
    sanitizer = telemetry.sanitizer
    if sanitizer is None:
        sanitizer_summary: Dict[str, Any] = {"attached": False,
                                             "violations": 0}
    else:
        violations = sanitizer.violations
        sanitizer_summary = {
            "attached": True,
            "violations": len(violations),
            "messages": [
                str(v) for v in violations[:_MAX_SANITIZER_MESSAGES]
            ],
        }

    return {
        "attribution": attribute(links, 0, telemetry.sim.now),
        "latency_ns": latency_summary(latencies),
        "ports": snapshot["fabric"].get("topology.ports", {}),
        "sanitizer": sanitizer_summary,
        "records": {
            "flows": len(links.flows),
            "pipe_intervals": len(links.pipes),
            "stalls": len(links.stalls),
            "dropped": links.dropped_records,
            "truncated": links.truncated,
        },
        "critical_path": critical_path(links),
    }


def aggregate_reports(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Reduce one experiment's run reports to headline numbers.

    Attribution nanoseconds sum across runs (shares renormalize over the
    summed window); latency percentiles combine as count-weighted means,
    which is exact for the mean and a standard approximation for the
    quantiles of same-shaped runs.
    """
    if not runs:
        return {"runs": 0}
    categories = {
        name: sum(r["attribution"]["categories"][name] for r in runs)
        for name in CATEGORIES
    }
    total = sum(r["attribution"]["total_ns"] for r in runs)
    latency: Dict[str, Any] = {
        "count": sum(r["latency_ns"]["count"] for r in runs)
    }
    if latency["count"]:
        for key in ("mean", "p50", "p90", "p99"):
            weighted = [(r["latency_ns"][key], r["latency_ns"]["count"])
                        for r in runs
                        if r["latency_ns"].get(key) is not None]
            if weighted:
                latency[key] = (sum(v * c for v, c in weighted)
                                / sum(c for _, c in weighted))
    return {
        "runs": len(runs),
        "attribution": {
            "total_ns": total,
            "categories": categories,
            "shares": {
                name: (ns / total if total else 0.0)
                for name, ns in categories.items()
            },
            "top": max(CATEGORIES, key=lambda name: categories[name]),
            "conserved": all(r["attribution"]["conserved"] for r in runs),
        },
        "latency_ns": latency,
        "violations": sum(r["sanitizer"]["violations"] for r in runs),
        "truncated": any(r["records"]["truncated"] for r in runs),
    }


def build_document(experiments: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Wrap per-experiment entries in the schema envelope."""
    return {"schema": dict(REPORT_SCHEMA), "experiments": experiments}


# -- markdown rendering ----------------------------------------------------

def _ns(value) -> str:
    value = float(value)
    if value >= 1e6:
        return f"{value / 1e6:.2f}ms"
    if value >= 1e3:
        return f"{value / 1e3:.1f}us"
    return f"{value:.0f}ns"


def render_markdown(document: Dict[str, Any]) -> str:
    """Human-readable rendering of a report document."""
    schema = document.get("schema", {})
    lines = [
        f"# Shuffle run report ({schema.get('name', '?')} "
        f"v{schema.get('version', '?')})",
    ]
    for experiment in document.get("experiments", []):
        agg = experiment.get("aggregate") or {}
        lines.append("")
        lines.append(f"## {experiment.get('name', '(unnamed)')} "
                     f"— {agg.get('runs', 0)} run(s)")
        attribution = agg.get("attribution")
        if attribution:
            lines.append("")
            lines.append(f"Attribution over {_ns(attribution['total_ns'])} "
                         f"of simulated time "
                         f"(top: **{attribution['top']}**, conserved: "
                         f"{attribution['conserved']}):")
            lines.append("")
            lines.append("| category | time | share |")
            lines.append("|---|---:|---:|")
            ranked = sorted(CATEGORIES,
                            key=lambda n: -attribution["categories"][n])
            for name in ranked:
                ns = attribution["categories"][name]
                if not ns:
                    continue
                lines.append(f"| {name} | {_ns(ns)} | "
                             f"{100.0 * attribution['shares'][name]:.1f}% |")
        latency = agg.get("latency_ns", {})
        if latency.get("count"):
            lines.append("")
            lines.append(
                f"Message latency ({latency['count']} messages): "
                f"mean {_ns(latency['mean'])}, p50 {_ns(latency['p50'])}, "
                f"p90 {_ns(latency['p90'])}, p99 {_ns(latency['p99'])}.")
        if agg.get("violations"):
            lines.append("")
            lines.append(f"Sanitizer: {agg['violations']} violation(s).")
        if agg.get("truncated"):
            lines.append("")
            lines.append("Warning: the link-record budget ran dry; "
                         "attribution explains only part of the window.")
        hottest = _hottest_ports(experiment)
        if hottest:
            lines.append("")
            lines.append("Hottest switch ports (max utilization across "
                         "runs):")
            for name, util in hottest:
                lines.append(f"- `{name}`: {100.0 * util:.1f}%")
    lines.append("")
    return "\n".join(lines)


def _hottest_ports(experiment: Dict[str, Any], top: int = 5):
    utilization: Dict[str, float] = {}
    for run in experiment.get("runs", []):
        for name, port in run.get("ports", {}).items():
            utilization[name] = max(utilization.get(name, 0.0),
                                    port.get("utilization", 0.0))
    ranked = sorted(utilization.items(), key=lambda item: -item[1])
    return [(name, util) for name, util in ranked[:top] if util > 0.0]
