"""repro.telemetry — harvested metrics + simulated-time tracing.

A lightweight observability layer threaded through every level of the
stack (sim kernel, NIC, fabric, verbs, shuffle endpoints):

* :class:`Telemetry` — the per-cluster observer bundle, owned by
  :class:`~repro.cluster.Cluster`: its snapshot harvests the plain
  integer attributes the simulated objects keep anyway, plus a dict of
  snapshot-time callbacks; cheap enough to stay enabled by default,
  with a global off switch (:func:`set_enabled`) for benchmarks.
* :class:`Tracer` — spans and instants recorded in simulated
  nanoseconds, exported as Chrome trace-event JSON (open the file in
  ``chrome://tracing`` or https://ui.perfetto.dev): one trace process
  per node, one thread per QP/endpoint/NIC pipe.
* :func:`latency_summary` / :func:`percentile` — summaries of a latency
  population.
* :class:`TelemetrySession` — cross-cluster collection for the
  ``repro-bench --metrics/--trace`` flags.

See the "Observability" sections of README.md and DESIGN.md.
"""

from repro.telemetry.core import (
    Telemetry,
    is_enabled,
    nic_cache_stats,
    set_enabled,
)
from repro.telemetry.links import FlowRecorder
from repro.telemetry.metrics import latency_summary, percentile
from repro.telemetry.session import (
    TelemetrySession,
    current_session,
    digest_snapshots,
    format_digest,
    session,
)
from repro.telemetry.trace import TraceBudget, Tracer

__all__ = [
    "FlowRecorder",
    "latency_summary",
    "percentile",
    "Telemetry",
    "TelemetrySession",
    "TraceBudget",
    "Tracer",
    "current_session",
    "digest_snapshots",
    "format_digest",
    "is_enabled",
    "nic_cache_stats",
    "session",
    "set_enabled",
]
