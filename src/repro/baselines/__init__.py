"""Performance baselines (§5.1).

The paper compares its RDMA-aware designs against:

* **MPI** (:mod:`repro.baselines.mpi`) — a simulated MVAPICH2: eager and
  rendezvous protocols, a per-node runtime lock, progress that only runs
  while some thread is inside an MPI call (the structural reason MPI
  fails to overlap communication with computation), and a binomial-tree
  broadcast.
* **IPoIB** (:mod:`repro.baselines.ipoib`) — TCP sockets over InfiniBand:
  kernel-stack CPU cost per byte on both sides, bounded socket windows,
  and reduced effective wire efficiency.  Represents a network upgrade
  with no software changes.
* **qperf** (:mod:`repro.baselines.qperf`) — the bandwidth ceiling: one
  sender posting RC Sends from a single buffer, a receiver that never
  touches the data.

MPI and IPoIB implement the §4.2 endpoint interface and are rows of the
endpoint-kind table like the RDMA implementations, so they are ordinary
entries of :data:`repro.core.designs.DESIGNS` (``"MPI"``, ``"IPoIB"``).
"""

from repro.baselines.mpi import MPIReceiveEndpoint, MPIRuntime, MPISendEndpoint
from repro.baselines.ipoib import IPoIBReceiveEndpoint, IPoIBSendEndpoint
from repro.baselines.qperf import run_qperf

__all__ = [
    "IPoIBReceiveEndpoint",
    "IPoIBSendEndpoint",
    "MPIReceiveEndpoint",
    "MPIRuntime",
    "MPISendEndpoint",
    "run_qperf",
]
