"""Telemetry sessions: collect metrics/traces across many clusters.

Benchmark drivers construct a fresh :class:`~repro.cluster.Cluster` per
data point, so a figure is dozens of independent simulations.  A
:class:`TelemetrySession` is the collection point: while one is active
(see :func:`session`), every Cluster constructed registers its
:class:`~repro.telemetry.core.Telemetry` with it.  The session

* assigns each run a disjoint trace pid namespace and a *shared* event
  budget, so ``--trace`` output stays browser-sized no matter how many
  runs a figure needs;
* seals finished runs into plain snapshot dicts at :meth:`checkpoint`
  (dropping the references to the simulated cluster, so memory does not
  accumulate over a long ``--all`` invocation);
* reduces snapshots to a one-line digest — the transport-level
  explanation attached to each reproduced figure's notes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from repro.telemetry.core import Telemetry
from repro.telemetry.links import DEFAULT_LINK_RECORDS
from repro.telemetry.trace import TraceBudget, Tracer, write_trace

__all__ = [
    "TelemetrySession",
    "session",
    "current_session",
    "digest_snapshots",
    "format_digest",
]

#: trace events shared by every run of a ``trace=True`` session.
SESSION_TRACE_EVENTS = 400_000

_ACTIVE: Optional["TelemetrySession"] = None


def current_session() -> Optional["TelemetrySession"]:
    """The session new Clusters should report to, if any."""
    return _ACTIVE


@contextmanager
def session(trace: bool = False, sanitize: bool = False,
            report: bool = False):
    """Activate a TelemetrySession for the duration of the ``with`` block."""
    global _ACTIVE
    if _ACTIVE is not None:
        # Nested sessions would double-count; inner scopes just reuse.
        yield _ACTIVE
        return
    sess = TelemetrySession(trace=trace, sanitize=sanitize, report=report)
    _ACTIVE = sess
    try:
        yield sess
    finally:
        _ACTIVE = None


class TelemetrySession:
    """Aggregates telemetry from every cluster built while active."""

    #: pid offset between runs in the merged trace.
    PID_STRIDE = 1000

    def __init__(self, trace: bool = False, sanitize: bool = False,
                 report: bool = False):
        self.trace = trace
        self.budget = TraceBudget(SESSION_TRACE_EVENTS) if trace else None
        #: record causal links on every cluster and seal RunReports at
        #: checkpoint() (repro-bench --report).  One budget is shared
        #: across all runs so report memory stays bounded session-wide.
        self.report = report
        self.link_budget = (TraceBudget(DEFAULT_LINK_RECORDS)
                            if report else None)
        #: sealed per-experiment report entries: {"name", "runs",
        #: "aggregate"} (see repro.obs.report).
        self.reports: List[Dict[str, Any]] = []
        self.telemetries: List[Telemetry] = []
        self._tracers: List[Tracer] = []
        self._runs = 0
        #: sealed per-checkpoint records: {"experiment", "runs", "digest"}.
        self.records: List[Dict[str, Any]] = []
        #: request every Cluster built under this session to enable its
        #: runtime sanitizer (repro-bench --sanitize).
        self.sanitize = sanitize
        #: live sanitizers of not-yet-checkpointed runs.
        self.sanitizers: List[Any] = []
        #: violations drained from sealed runs, in checkpoint order.
        self.violation_log: List[Any] = []

    def attach(self, sim, num_nodes: int) -> Telemetry:
        """Create (and track) the Telemetry for one new cluster."""
        index = self._runs
        self._runs += 1
        telemetry = Telemetry(sim, num_nodes)
        if self.trace:
            tracer = telemetry.enable_tracing(
                budget=self.budget,
                pid_base=index * self.PID_STRIDE,
                label=f"run{index}")
            self._tracers.append(tracer)
        if self.report:
            telemetry.enable_links(budget=self.link_budget)
        self.telemetries.append(telemetry)
        return telemetry

    # -- metrics -----------------------------------------------------------

    def checkpoint(self, experiment: str) -> Dict[str, Any]:
        """Seal all live runs under ``experiment``; returns their digest."""
        if self.report:
            # Build RunReports while the telemetries are still tracked;
            # the snapshots below drop every simulator reference.  (A
            # cluster disposed before this point sealed its snapshot in
            # Cluster.dispose(), so both still see its counters.)
            from repro.obs.report import aggregate_reports, build_run_report
            runs = [build_run_report(tel) for tel in self.telemetries
                    if tel.links is not None]
            self.reports.append({
                "name": experiment,
                "runs": runs,
                "aggregate": aggregate_reports(runs),
            })
            for tel in self.telemetries:
                # Past the tracer's last row, the rows were the report's.
                stop = tel.tracer and tel.tracer.pipes.part.stop
                if stop is not None:
                    del tel.pipe_rows.data[stop * tel.pipe_rows.width:]
        snapshots = [tel.snapshot() for tel in self.telemetries]
        digest = digest_snapshots(snapshots)
        self.records.append({
            "experiment": experiment,
            "runs": snapshots,
            "digest": digest,
        })
        self.telemetries.clear()
        for sanitizer in self.sanitizers:
            self.violation_log.extend(sanitizer.violations)
        self.sanitizers.clear()
        return digest

    def register_sanitizer(self, sanitizer: Any) -> None:
        """Track one run's sanitizer so checkpoint() drains its findings."""
        self.sanitizers.append(sanitizer)

    def sanitizer_report(self) -> str:
        """Human-readable summary of every violation seen so far."""
        pending = [v for s in self.sanitizers for v in s.violations]
        found = list(self.violation_log) + pending
        if not found:
            return "sanitizer: clean (0 violations)"
        lines = [f"sanitizer: {len(found)} violation(s)"]
        lines.extend(f"  {violation}" for violation in found)
        return "\n".join(lines)

    @property
    def violation_count(self) -> int:
        return (len(self.violation_log)
                + sum(len(s.violations) for s in self.sanitizers))

    def metrics_document(self) -> Dict[str, Any]:
        """The ``--metrics`` JSON payload."""
        if self.telemetries:  # runs nobody checkpointed
            self.checkpoint("(unattributed)")
        return {
            "schema": {"name": "repro-telemetry-metrics", "version": 1},
            "experiments": self.records,
        }

    def report_document(self) -> Dict[str, Any]:
        """The ``--report`` JSON payload (see repro.obs.report)."""
        from repro.obs.report import build_document
        if self.telemetries:  # runs nobody checkpointed
            self.checkpoint("(unattributed)")
        return build_document(self.reports)

    # -- tracing -----------------------------------------------------------

    def export_trace(self, path: str) -> None:
        """Write every run's trace as one Chrome trace-event document."""
        with open(path, "w") as fh:
            write_trace(fh, self._tracers,
                        self.budget.dropped if self.budget else 0,
                        runs=len(self._tracers))


def digest_snapshots(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Reduce run snapshots to the headline transport-level numbers."""
    def node_sum(key: str) -> int:
        return sum(
            metrics.get(key, 0)
            for snap in snapshots for metrics in snap["nodes"].values()
        )

    hits = node_sum("nic.qp_cache.hits")
    misses = node_sum("nic.qp_cache.misses")
    total = hits + misses
    return {
        "runs": len(snapshots),
        "delivered_messages": sum(
            snap["fabric"].get("fabric.delivered_messages", 0)
            for snap in snapshots),
        "qp_cache_hits": hits,
        "qp_cache_misses": misses,
        "qp_cache_miss_rate": misses / total if total else 0.0,
        "pcie_stall_ns": node_sum("nic.pcie_stall_ns"),
        "credit_stall_ns": node_sum("ep.credit_wait_ns"),
        "rnr_stall_ns": node_sum("verbs.rnr_stall_ns"),
        "data_wait_ns": node_sum("ep.data_wait_ns"),
    }


def format_digest(digest: Dict[str, Any]) -> str:
    """One-line rendering for ExperimentResult.notes."""
    return (
        f"telemetry[{digest['runs']} runs]: "
        f"qp-cache miss {100.0 * digest['qp_cache_miss_rate']:.1f}% "
        f"({digest['qp_cache_misses']}/"
        f"{digest['qp_cache_hits'] + digest['qp_cache_misses']}), "
        f"pcie-stall {digest['pcie_stall_ns'] / 1e6:.1f}ms, "
        f"credit-stall {digest['credit_stall_ns'] / 1e6:.1f}ms, "
        f"rnr-stall {digest['rnr_stall_ns'] / 1e6:.1f}ms"
    )
