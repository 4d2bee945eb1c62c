"""Benchmark harness: workloads, experiment drivers, and reporting.

One registry entry exists for every table and figure of the paper's
evaluation (§5) and for every ablation and extension; see DESIGN.md for
the experiment index.  Each is a rows × x grid over one point-runner
(:func:`repro.bench.experiments.measure`) and returns plain data
structures; :mod:`repro.bench.report` renders them in the same
rows/series layout the paper plots.
"""

from repro.bench.workloads import (
    ShuffleRunResult,
    run_broadcast,
    run_repartition,
)

__all__ = [
    "ShuffleRunResult",
    "run_broadcast",
    "run_repartition",
]
