"""The paper's primary contribution: RDMA-aware data shuffling operators.

Contents (section numbers refer to the paper):

* :mod:`repro.core.groups` — the transmission-group abstraction
  encapsulating repartition / multicast / broadcast patterns (§4.1).
* :mod:`repro.core.endpoint` — the vocabulary of the communication-
  endpoint abstraction (§4.2): transmission state, configuration, framing.
* :mod:`repro.core.transport` — the shared transport runtime under the
  designs: the endpoint base classes, connection tables, credit schemes,
  buffer rings and completion dispatch.
* :mod:`repro.core.sr_rc` — RDMA Send/Receive over Reliable Connection
  with the stateless credit protocol (§4.4.1).
* :mod:`repro.core.sr_ud` — RDMA Send/Receive over Unreliable Datagram
  with software flow control and message counting (§4.4.2).
* :mod:`repro.core.read_rc` — RDMA Read over Reliable Connection with the
  FreeArr/ValidArr circular message queues (§4.4.3, Algorithm 3).
* :mod:`repro.core.write_rc` — an RDMA **Write**-based endpoint (the
  paper's first future-work item, §7).
* :mod:`repro.core.shuffle` / :mod:`repro.core.receive` — the SHUFFLE and
  RECEIVE operators (Algorithms 1 and 2).
* :mod:`repro.core.designs` — the design table of Table 1 and the
  endpoint-kind table behind it.
* :mod:`repro.core.stage` — wiring: builds endpoints on every node of a
  cluster, runs connection setup, exposes the operators.
"""

from repro.core.designs import DESIGNS, Design, design_properties
from repro.core.endpoint import (
    DataState,
    EndpointConfig,
    ShuffleNetworkError,
)
from repro.core.groups import TransmissionGroups
from repro.core.receive import ReceiveOperator
from repro.core.shuffle import ShuffleOperator
from repro.core.stage import ShuffleStage
from repro.core.transport.runtime import ReceiveEndpoint, SendEndpoint

__all__ = [
    "DESIGNS",
    "DataState",
    "Design",
    "EndpointConfig",
    "ReceiveEndpoint",
    "ReceiveOperator",
    "SendEndpoint",
    "ShuffleNetworkError",
    "ShuffleOperator",
    "ShuffleStage",
    "TransmissionGroups",
    "design_properties",
]
