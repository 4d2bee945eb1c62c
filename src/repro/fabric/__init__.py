"""Simulated InfiniBand fabric.

This package models the hardware substrate the paper's evaluation ran on:

* :mod:`repro.fabric.config` — calibrated constants for the two clusters
  (56 Gbps FDR and 100 Gbps EDR InfiniBand) and the CPU cost model.
* :mod:`repro.fabric.nic` — the network adapter: egress/ingress
  serialization, a per-work-request processing engine, and the LRU Queue
  Pair context cache whose misses reproduce the "too many QPs" effect.
* :mod:`repro.fabric.topology` — the explicit switch graph: ports,
  switches, links and precomputed routes, built from a
  :class:`~repro.fabric.config.TopologySpec` preset (single-switch,
  oversubscribed leaf-spine).
* :mod:`repro.fabric.routing` — the generic path-walker executing a
  route's hop sequence as a flat callback chain.
* :mod:`repro.fabric.network` — nodes and the switched fabric connecting
  them, including UD out-of-order jitter and optional loss injection.
"""

from repro.fabric.config import (
    EDR,
    FDR,
    LEAF_SPINE,
    SINGLE_SWITCH,
    ClusterConfig,
    NetworkConfig,
    TopologySpec,
)
from repro.fabric.network import Fabric, Node
from repro.fabric.nic import NIC, QPContextCache
from repro.fabric.packet import Packet
from repro.fabric.topology import Topology

__all__ = [
    "EDR",
    "FDR",
    "LEAF_SPINE",
    "SINGLE_SWITCH",
    "ClusterConfig",
    "Fabric",
    "NIC",
    "NetworkConfig",
    "Node",
    "Packet",
    "QPContextCache",
    "Topology",
    "TopologySpec",
]
