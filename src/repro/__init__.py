"""repro — RDMA-aware data shuffling for parallel database systems.

A from-scratch reproduction of Liu, Yin & Blanas, *"Design and Evaluation
of an RDMA-aware Data Shuffling Operator for Parallel Database Systems"*
(EuroSys 2017), built on a deterministic discrete-event simulation of
InfiniBand clusters (see DESIGN.md for the substitution rationale).

Quickstart::

    from repro import Cluster, ClusterConfig, EDR
    from repro.bench.workloads import run_repartition

    cluster = Cluster(ClusterConfig(network=EDR, num_nodes=8))
    result = run_repartition(cluster, design="MESQ/SR",
                             bytes_per_node=16 << 20)
    print(result.receive_throughput_gib_per_node())
"""

from repro.cluster import Cluster
from repro.core import (
    DESIGNS,
    DataState,
    Design,
    EndpointConfig,
    ReceiveOperator,
    ShuffleNetworkError,
    ShuffleOperator,
    ShuffleStage,
    TransmissionGroups,
    design_properties,
)
from repro.fabric import (
    EDR,
    FDR,
    LEAF_SPINE,
    SINGLE_SWITCH,
    ClusterConfig,
    NetworkConfig,
    TopologySpec,
)

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "ClusterConfig",
    "DESIGNS",
    "DataState",
    "Design",
    "EDR",
    "EndpointConfig",
    "FDR",
    "LEAF_SPINE",
    "NetworkConfig",
    "SINGLE_SWITCH",
    "TopologySpec",
    "ReceiveOperator",
    "ShuffleNetworkError",
    "ShuffleOperator",
    "ShuffleStage",
    "TransmissionGroups",
    "design_properties",
    "__version__",
]
