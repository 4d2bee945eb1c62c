"""Extension: the RDMA Write endpoint (the paper's §7 future work).

Shape checks for ``ext-write`` (see
:func:`repro.bench.experiments.ext_write`).
"""

from conftest import run_once, show

from repro.bench.experiments import Point, ext_write, measure


def test_write_vs_read_endpoint(benchmark):
    result = run_once(benchmark, ext_write)
    show(result)
    # Write at least matches Read on repartition...
    assert result.value("repartition", "MEMQ/WR") > \
        0.9 * result.value("repartition", "MEMQ/RD")
    # ...and clearly beats it on broadcast (no shared-buffer starvation).
    assert result.value("broadcast", "MEMQ/WR") > \
        1.1 * result.value("broadcast", "MEMQ/RD")


def test_write_vs_read_broadcast_value(benchmark):
    """Hypothesis from §7 quantified for the summary table."""
    def ratio():
        wr, rd = (measure(Point(design, 5 << 20, pattern="broadcast")).gib_s
                  for design in ("SEMQ/WR", "SEMQ/RD"))
        return wr / rd

    speedup = run_once(benchmark, ratio)
    print(f"\nSEMQ/WR over SEMQ/RD broadcast speedup: {speedup:.2f}x")
    assert speedup > 1.1
