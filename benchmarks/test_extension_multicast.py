"""Extension: MESQ/SR with native InfiniBand multicast (§7 future work #3).

Shape checks for ``ext-multicast`` (see
:func:`repro.bench.experiments.ext_multicast`).
"""

from conftest import run_once, show

from repro.bench.experiments import ext_multicast


def test_multicast_extension(benchmark):
    result = run_once(benchmark, ext_multicast)
    show(result)
    for i, nodes in enumerate(result.x):
        base_thr = result.series_by_label("MESQ/SR (GiB/s)").y[i]
        mc_thr = result.series_by_label("MESQ/SR+MC (GiB/s)").y[i]
        base_tx = result.series_by_label("MESQ/SR egress (GB)").y[i]
        mc_tx = result.series_by_label("MESQ/SR+MC egress (GB)").y[i]
        # Throughput at least matches the software broadcast...
        assert mc_thr > 0.9 * base_thr, nodes
        # ...with egress traffic cut by roughly the group fanout.
        assert mc_tx < 1.8 * base_tx / (nodes - 1), nodes
