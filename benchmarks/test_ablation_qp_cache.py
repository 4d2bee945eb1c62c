"""Ablation: the NIC Queue-Pair context cache.

Shape checks for ``abl-qp-cache`` (see
:func:`repro.bench.experiments.abl_qp_cache`).
"""

from conftest import run_once, show

from repro.bench.experiments import abl_qp_cache


def test_qp_cache_ablation(benchmark):
    result = run_once(benchmark, abl_qp_cache)
    show(result)
    real = result.series_by_label("finite cache (real NIC)")
    ablated = result.series_by_label("infinite cache (ablated)")
    misses = result.series_by_label("miss rate (%)")
    # With the real cache, 16 nodes collapse; without it, they don't.
    assert real.y[1] < 0.7 * real.y[0]
    assert ablated.y[1] > 0.85 * ablated.y[0]
    assert ablated.y[1] > 1.5 * real.y[1]
    # The telemetry explains the collapse: at 16 nodes the per-operator
    # QP count exceeds the context cache and the miss rate jumps.
    assert misses.y[1] > misses.y[0]
    assert misses.y[1] > 10.0
