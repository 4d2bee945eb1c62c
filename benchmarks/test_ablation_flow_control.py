"""Ablation: buffer depth (double vs deeper buffering) in flow control.

Shape checks for ``abl-buffer-depth`` (see
:func:`repro.bench.experiments.abl_buffer_depth`).
"""

from conftest import run_once, show

from repro.bench.experiments import abl_buffer_depth


def test_buffer_depth_ablation(benchmark):
    result = run_once(benchmark, abl_buffer_depth)
    show(result)
    thr = result.series_by_label("throughput (GiB/s)").y
    stall = result.series_by_label("credit stall (ms, all threads)").y
    mem = result.series_by_label("pinned memory (MiB)").y
    # Single buffering stalls the senders; deep windows remove the
    # stall almost entirely.
    assert stall[0] > 1.2 * stall[1]
    assert stall[0] > 5 * stall[3]
    # Throughput improves from single to double buffering, then flattens
    # (diminishing returns, §5.1.2).
    assert thr[1] > 1.03 * thr[0]
    assert thr[3] < 1.1 * thr[1]
    # Pinned memory grows linearly regardless.
    assert mem[3] > 3.5 * mem[0]
