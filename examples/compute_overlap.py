#!/usr/bin/env python
"""Communication/computation overlap (the paper's Figure 13 story).

Makes the receiving query fragment progressively more compute intensive
and reports how much of the receiver threads' time is spent doing useful
work rather than waiting for data.  The bespoke RDMA endpoints approach
100% (communication fully hidden); MPI cannot, because its progress
engine only runs while a thread sits inside an MPI call.

Run:  python examples/compute_overlap.py
"""

from repro import Cluster, ClusterConfig, EDR
from repro.bench.workloads import run_repartition

MIB = 1 << 20


def main() -> None:
    designs = ("MESQ/SR", "SEMQ/RD", "MPI", "IPoIB")
    print(f"{'compute/32KiB':>13s}  " +
          "  ".join(f"{d:>8s}" for d in designs))
    for compute_us in (0.0, 5.0, 15.0, 40.0):
        row = [f"{compute_us:10.1f} us"]
        for design in designs:
            cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4))
            result = run_repartition(
                cluster, design, bytes_per_node=8 * MIB,
                compute_ns_per_batch=compute_us * 1000.0)
            row.append(f"{100 * result.receiver_busy_fraction():7.1f}%")
        print("  ".join(row))
    print("\n100% = communication completely hidden behind computation")


if __name__ == "__main__":
    main()
