"""The shuffling-operator designs (§4.5, Table 1).

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

:data:`ENDPOINT_KINDS` is the implementation dimension: one
:class:`EndpointKind` per send/receive class pair.  A :class:`Design`
holds its kind record plus the endpoint-count choice; a design built
outside :data:`DESIGNS` is ``Design(name, EndpointKind(...), multi)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type, Union

from repro.baselines.ipoib import IPoIBReceiveEndpoint, IPoIBSendEndpoint
from repro.baselines.mpi import MPIReceiveEndpoint, MPISendEndpoint
from repro.core.endpoint import EndpointConfig
from repro.core.mcast import McastSRUDReceiveEndpoint, McastSRUDSendEndpoint
from repro.core.read_rc import ReadRCReceiveEndpoint, ReadRCSendEndpoint
from repro.core.sr_rc import SRRCReceiveEndpoint, SRRCSendEndpoint
from repro.core.sr_ud import SRUDReceiveEndpoint, SRUDSendEndpoint
from repro.core.transport.runtime import ReceiveEndpoint, SendEndpoint
from repro.core.write_rc import WriteRCReceiveEndpoint, WriteRCSendEndpoint

__all__ = [
    "Design",
    "DESIGNS",
    "ENDPOINT_KINDS",
    "EndpointKind",
    "PAPER_ORDER",
    "UnknownDesignError",
    "design_properties",
    "resolve_design",
]


@dataclass(frozen=True)
class EndpointKind:
    """One endpoint implementation: a send/receive class pair."""

    name: str
    send_cls: Type[SendEndpoint]
    recv_cls: Type[ReceiveEndpoint]
    #: rides on Unreliable Datagram: MTU-capped messages, software error
    #: control (drives the message-size cap and Table 1 columns).
    uses_ud: bool = False
    #: one-sided data path (RDMA Read/Write): flow control in hardware.
    one_sided: bool = False


ENDPOINT_KINDS: Dict[str, EndpointKind] = {k.name: k for k in (
    EndpointKind("MPI", MPISendEndpoint, MPIReceiveEndpoint),
    EndpointKind("IPOIB", IPoIBSendEndpoint, IPoIBReceiveEndpoint),
    EndpointKind("SR_UD", SRUDSendEndpoint, SRUDReceiveEndpoint,
                 uses_ud=True),
    EndpointKind("SR_UD_MC", McastSRUDSendEndpoint, McastSRUDReceiveEndpoint,
                 uses_ud=True),
    EndpointKind("RD_RC", ReadRCSendEndpoint, ReadRCReceiveEndpoint,
                 one_sided=True),
    EndpointKind("SR_RC", SRRCSendEndpoint, SRRCReceiveEndpoint),
    EndpointKind("WR_RC", WriteRCSendEndpoint, WriteRCReceiveEndpoint,
                 one_sided=True),
)}


class UnknownDesignError(KeyError):
    """Raised for a design name that is not in :data:`DESIGNS`."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return (f"unknown shuffle design {self.name!r}; known designs: "
                f"{', '.join(sorted(DESIGNS))} (registered endpoint "
                f"kinds: {', '.join(ENDPOINT_KINDS)})")


@dataclass(frozen=True)
class Design:
    """One point in the design space of Table 1."""

    name: str
    kind: EndpointKind
    multi_endpoint: bool

    @property
    def send_cls(self) -> Type[SendEndpoint]:
        return self.kind.send_cls

    @property
    def recv_cls(self) -> Type[ReceiveEndpoint]:
        return self.kind.recv_cls

    @property
    def uses_ud(self) -> bool:
        return self.kind.uses_ud

    @property
    def one_sided(self) -> bool:
        return self.kind.one_sided

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
                     ) -> Tuple[int, int, EndpointConfig]:
        """Endpoint count, threads per endpoint and effective endpoint
        config of one stage.

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
        return k, -(-threads // k), dataclasses.replace(
            base, message_size=message_size, buffers_per_connection=buffers)

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
DESIGNS: Dict[str, Design] = {d.name: d for d in (
    Design("MEMQ/RD", ENDPOINT_KINDS["RD_RC"], multi_endpoint=True),
    Design("SEMQ/RD", ENDPOINT_KINDS["RD_RC"], multi_endpoint=False),
    Design("MEMQ/SR", ENDPOINT_KINDS["SR_RC"], multi_endpoint=True),
    Design("SEMQ/SR", ENDPOINT_KINDS["SR_RC"], multi_endpoint=False),
    Design("MESQ/SR", ENDPOINT_KINDS["SR_UD"], multi_endpoint=True),
    Design("SESQ/SR", ENDPOINT_KINDS["SR_UD"], multi_endpoint=False),
    Design("MESQ/SR+MC", ENDPOINT_KINDS["SR_UD_MC"], multi_endpoint=True),
    Design("MEMQ/WR", ENDPOINT_KINDS["WR_RC"], multi_endpoint=True),
    Design("SEMQ/WR", ENDPOINT_KINDS["WR_RC"], multi_endpoint=False),
    Design("MPI", ENDPOINT_KINDS["MPI"], multi_endpoint=True),
    Design("IPoIB", ENDPOINT_KINDS["IPOIB"], multi_endpoint=True),
)}

#: the order the paper lists the six designs in.
PAPER_ORDER = ["MEMQ/SR", "MEMQ/RD", "MESQ/SR", "SEMQ/SR", "SEMQ/RD", "SESQ/SR"]


def resolve_design(design: Union[str, "Design"]) -> Design:
    """Resolve a design name (or pass a :class:`Design` through), eagerly.

    The single sanctioned name→design lookup: it raises
    :class:`UnknownDesignError` listing the known designs and endpoint
    kinds for a bad name, at stage/policy construction.
    """
    if isinstance(design, Design):
        return design
    try:
        return DESIGNS[design]
    except (KeyError, TypeError):
        raise UnknownDesignError(str(design)) from None


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
