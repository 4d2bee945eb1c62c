"""The six shuffling-operator designs (§4.5, Table 1).

Two orthogonal dimensions:

* endpoint count per operator — single endpoint shared by all threads
  (SE) or one endpoint per thread (ME);
* endpoint implementation — single Queue Pair with Send/Receive over UD
  (SQ/SR), per-peer Queue Pairs with Send/Receive over RC (MQ/SR), or
  per-peer Queue Pairs with RDMA Read over RC (MQ/RD).

``WR_RC`` (RDMA Write over RC) implements the paper's first future-work
item and is exposed as two extra designs (SEMQ/WR, MEMQ/WR) for the
extension benchmarks.  The MPI and IPoIB baselines of §5.1 implement
the same endpoint interface and are ordinary entries of :data:`DESIGNS`.

Endpoint implementations self-register with the backend registry
(:mod:`repro.core.transport.registry`) at import time; a :class:`Design`
merely *names* a kind, and resolves classes and transport properties
through the registry.  Importing the implementation modules below is
what populates it for the built-in kinds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type, Union

from repro.core.endpoint import EndpointConfig
from repro.core.transport.registry import backend, register_endpoint_kind
from repro.core.transport.runtime import ReceiveEndpoint, SendEndpoint

# Importing an implementation module registers its endpoint kind.
import repro.baselines.ipoib  # noqa: F401  (IPOIB)
import repro.baselines.mpi   # noqa: F401  (MPI)
import repro.core.mcast      # noqa: F401  (SR_UD_MC)
import repro.core.read_rc    # noqa: F401  (RD_RC)
import repro.core.sr_rc      # noqa: F401  (SR_RC)
import repro.core.sr_ud      # noqa: F401  (SR_UD)
import repro.core.write_rc   # noqa: F401  (WR_RC)

__all__ = [
    "Design",
    "DESIGNS",
    "PAPER_ORDER",
    "UnknownDesignError",
    "design_properties",
    "register_endpoint_kind",
    "resolve_design",
]


class UnknownDesignError(KeyError):
    """Raised for a design name that is not in :data:`DESIGNS`."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        from repro.core.transport.registry import registered_kinds
        return (f"unknown shuffle design {self.name!r}; known designs: "
                f"{', '.join(sorted(DESIGNS))} (registered endpoint "
                f"kinds: {', '.join(registered_kinds())})")


@dataclass(frozen=True)
class Design:
    """One point in the design space of Table 1."""

    name: str
    endpoint_kind: str  # key into the endpoint-backend registry
    multi_endpoint: bool

    @property
    def send_cls(self) -> Type[SendEndpoint]:
        return backend(self.endpoint_kind).send_cls

    @property
    def recv_cls(self) -> Type[ReceiveEndpoint]:
        return backend(self.endpoint_kind).recv_cls

    @property
    def uses_ud(self) -> bool:
        return backend(self.endpoint_kind).uses_ud

    @property
    def one_sided(self) -> bool:
        return backend(self.endpoint_kind).one_sided

    def num_endpoints(self, threads: int) -> int:
        """Endpoints per operator: 1 (SE) or t (ME)."""
        return threads if self.multi_endpoint else 1

    def qps_per_operator(self, num_nodes: int, threads: int) -> int:
        """The "Open connections (QPs) per node" column of Table 1."""
        per_endpoint = 1 if self.uses_ud else num_nodes
        return self.num_endpoints(threads) * per_endpoint

    def stage_config(self, threads: int,
                     num_endpoints: Optional[int] = None,
                     base: Optional[EndpointConfig] = None,
                     mtu: Optional[int] = None
                     ) -> Tuple[int, EndpointConfig]:
        """Endpoint count and effective endpoint config of one stage.

        The one derivation the stage runs with and the footprint
        estimate sizes from: the threads are split over the endpoints,
        and UD caps the message size at the MTU (§2.2.2) and widens the
        buffer window to keep comparable in-flight bytes per
        connection.  ``mtu=None`` (network unknown) leaves the size
        uncapped, which only makes an estimate more generous.
        """
        k = num_endpoints or self.num_endpoints(threads)
        base = base or EndpointConfig()
        message_size = base.message_size
        buffers = base.buffers_per_connection
        if self.uses_ud:
            if mtu is not None:
                message_size = min(message_size, mtu)
            buffers *= base.ud_window_factor
        return k, dataclasses.replace(
            base, message_size=message_size, buffers_per_connection=buffers,
            threads_per_endpoint=-(-threads // k))

    # -- Table 1 descriptive columns -----------------------------------------

    @property
    def connections_label(self) -> str:
        if self.uses_ud:
            return "t" if self.multi_endpoint else "1"
        return "n*t" if self.multi_endpoint else "n"

    @property
    def resource_consumption(self) -> str:
        if self.uses_ud:
            return "Moderate" if self.multi_endpoint else "Minimal"
        return "Excessive" if self.multi_endpoint else "Moderate"

    @property
    def thread_contention(self) -> str:
        if self.multi_endpoint:
            return "None"
        return "Excessive" if self.uses_ud else "Moderate"

    @property
    def messaging(self) -> str:
        return ("Half-trip, up to 4 KiB" if self.uses_ud
                else "Round-trip, up to 1 GiB")

    @property
    def transport(self) -> str:
        return ("Unreliable Datagram (UD), error control in software"
                if self.uses_ud
                else "Reliable Connection (RC), error control in hardware")

    @property
    def flow_control(self) -> str:
        return ("One-sided, flow control in hardware" if self.one_sided
                else "Two-sided, flow control in software")


#: the six designs of the paper, the future-work variants (the
#: hardware-multicast MESQ/SR and the RDMA Write endpoint, §7), and the
#: §5.1 baselines.  The baselines run one endpoint per thread so the
#: comparison isolates the transport, not the endpoint-sharing dimension
#: (the MPI runtime and kernel TCP stack serialize per node regardless).
DESIGNS: Dict[str, Design] = {
    "MEMQ/RD": Design("MEMQ/RD", "RD_RC", multi_endpoint=True),
    "SEMQ/RD": Design("SEMQ/RD", "RD_RC", multi_endpoint=False),
    "MEMQ/SR": Design("MEMQ/SR", "SR_RC", multi_endpoint=True),
    "SEMQ/SR": Design("SEMQ/SR", "SR_RC", multi_endpoint=False),
    "MESQ/SR": Design("MESQ/SR", "SR_UD", multi_endpoint=True),
    "SESQ/SR": Design("SESQ/SR", "SR_UD", multi_endpoint=False),
    "MESQ/SR+MC": Design("MESQ/SR+MC", "SR_UD_MC", multi_endpoint=True),
    "MEMQ/WR": Design("MEMQ/WR", "WR_RC", multi_endpoint=True),
    "SEMQ/WR": Design("SEMQ/WR", "WR_RC", multi_endpoint=False),
    "MPI": Design("MPI", "MPI", multi_endpoint=True),
    "IPoIB": Design("IPoIB", "IPOIB", multi_endpoint=True),
}

#: the order the paper lists the six designs in.
PAPER_ORDER = ["MEMQ/SR", "MEMQ/RD", "MESQ/SR", "SEMQ/SR", "SEMQ/RD", "SESQ/SR"]


def resolve_design(design: Union[str, "Design"]) -> Design:
    """Resolve a design name (or pass a :class:`Design` through), eagerly.

    The single sanctioned name→design lookup: it raises
    :class:`UnknownDesignError` listing the known designs for a bad
    name, and probes the endpoint-backend registry so a design naming
    an unregistered kind fails here — at stage/policy construction —
    with the registered-kind list, instead of deep inside the transport
    layer at send time.
    """
    if isinstance(design, Design):
        d = design
    else:
        try:
            d = DESIGNS[design]
        except (KeyError, TypeError):
            raise UnknownDesignError(str(design)) from None
    backend(d.endpoint_kind)  # raises UnknownEndpointKindError eagerly
    return d


def design_properties(num_nodes: int, threads: int) -> List[dict]:
    """Rows reproducing Table 1 for a concrete cluster size."""
    rows = []
    for name in ["MEMQ/RD", "MEMQ/SR", "SEMQ/RD", "SEMQ/SR", "MESQ/SR",
                 "SESQ/SR"]:
        d = DESIGNS[name]
        rows.append({
            "design": name,
            "open_connections": d.connections_label,
            "qps_per_operator": d.qps_per_operator(num_nodes, threads),
            "resource_consumption": d.resource_consumption,
            "thread_contention": d.thread_contention,
            "messaging": d.messaging,
            "transport": d.transport,
            "flow_control": d.flow_control,
        })
    return rows
