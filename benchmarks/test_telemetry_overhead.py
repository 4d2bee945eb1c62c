"""Perf guard: telemetry must be cheap enough to stay on by default.

The instrumentation strategy (DESIGN.md, "Observability") keeps hot paths
to plain integer adds and harvests lazily at snapshot time, so the
default-enabled mode should cost the same wall-clock time as the global
no-op mode.  This guard fails if someone adds per-event instrument or
tracer work to a hot path.
"""

import time

from repro.bench.workloads import run_repartition
from repro.cluster import Cluster
from repro.fabric.config import EDR, ClusterConfig
from repro.telemetry import set_enabled

MIB = 1 << 20
ROUNDS = 5


def _shuffle_seconds(report: bool = False) -> float:
    cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4))
    if report:
        cluster.enable_reporting()
    t0 = time.perf_counter()
    run_repartition(cluster, "MESQ/SR", bytes_per_node=24 * MIB)
    return time.perf_counter() - t0


def test_enabled_mode_within_10pct_of_noop(benchmark):
    enabled_times, disabled_times = [], []
    try:
        # Interleave rounds so machine noise hits both modes equally;
        # min-of-N is the standard low-noise wall-clock estimator.
        for _ in range(ROUNDS):
            set_enabled(True)
            enabled_times.append(_shuffle_seconds())
            set_enabled(False)
            disabled_times.append(_shuffle_seconds())
    finally:
        set_enabled(True)
    enabled, disabled = min(enabled_times), min(disabled_times)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["enabled_s"] = round(enabled, 4)
    benchmark.extra_info["disabled_s"] = round(disabled, 4)
    assert enabled <= 1.10 * disabled, (
        f"default-enabled telemetry is {enabled / disabled:.2f}x the "
        f"no-op mode ({enabled:.3f}s vs {disabled:.3f}s); hot paths must "
        "stay at plain integer adds"
    )


def test_link_recording_overhead_is_bounded(benchmark):
    """Opt-in link recording (``--report``) may cost something — it
    appends a record per WR, pipe interval and stall — but it must stay
    a small constant factor, never change complexity class.  The off
    branch (``links is None``) is covered by the 10% guard above."""
    recording_times, baseline_times = [], []
    try:
        for _ in range(ROUNDS):
            set_enabled(True)
            recording_times.append(_shuffle_seconds(report=True))
            baseline_times.append(_shuffle_seconds(report=False))
    finally:
        set_enabled(True)
    recording, baseline = min(recording_times), min(baseline_times)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["recording_s"] = round(recording, 4)
    benchmark.extra_info["baseline_s"] = round(baseline, 4)
    assert recording <= 2.0 * baseline, (
        f"link recording is {recording / baseline:.2f}x the default mode "
        f"({recording:.3f}s vs {baseline:.3f}s); recording sites must stay "
        "append-only"
    )
