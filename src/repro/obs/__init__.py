"""repro.obs — critical-path analysis over the telemetry link records.

Built on the causal records of :mod:`repro.telemetry.links`, this package
turns one simulated shuffle into an explanation:

* :func:`attribute` — partition the run's wall (simulated) time into
  exclusive categories (QP-cache misses, PCIe stalls, trunk queueing,
  wire time, credit stalls, ...) with an exact conservation guarantee;
* :func:`critical_path` — the causal message chain ending at the last
  delivery;
* :func:`build_run_report` / :func:`render_markdown` — schema-versioned
  JSON reports (``repro-bench --report``) and their human rendering;
* :func:`diff` — the exact baseline check behind ``python -m repro.obs diff``.

See the "Observability" section of DESIGN.md for the model.
"""

from repro.obs.critical_path import CATEGORIES, attribute, critical_path
from repro.obs.diff import diff
from repro.obs.report import (
    REPORT_SCHEMA,
    aggregate_reports,
    build_document,
    build_run_report,
    render_markdown,
)

__all__ = [
    "CATEGORIES",
    "REPORT_SCHEMA",
    "aggregate_reports",
    "attribute",
    "build_document",
    "build_run_report",
    "critical_path",
    "diff",
    "render_markdown",
]
