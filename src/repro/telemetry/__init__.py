"""repro.telemetry — metrics registry + simulated-time tracing.

A lightweight observability layer threaded through every level of the
stack (sim kernel, NIC, fabric, verbs, shuffle endpoints):

* :class:`MetricsRegistry` — counters, gauges, fixed-bucket histograms;
  cheap enough to stay enabled by default, with a global no-op mode
  (:func:`set_enabled`) for benchmarks.
* :class:`Tracer` — spans and instants recorded in simulated
  nanoseconds, exported as Chrome trace-event JSON (open the file in
  ``chrome://tracing`` or https://ui.perfetto.dev): one trace process
  per node, one thread per QP/endpoint/NIC pipe.
* :class:`Telemetry` — the per-cluster bundle (one registry per node
  plus a fabric-wide one), owned by :class:`~repro.cluster.Cluster`.
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
from repro.telemetry.metrics import (
    DEFAULT_NS_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    latency_summary,
    percentile,
)
from repro.telemetry.session import (
    TelemetrySession,
    current_session,
    digest_snapshots,
    format_digest,
    session,
)
from repro.telemetry.trace import TraceBudget, Tracer

__all__ = [
    "Counter",
    "DEFAULT_NS_BUCKETS",
    "FlowRecorder",
    "Gauge",
    "Histogram",
    "latency_summary",
    "percentile",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
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
