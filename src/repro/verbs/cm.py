"""Connection management: the out-of-band bootstrap path.

Setting up RDMA communication is far more involved than opening a TCP
socket (§4.2, [10]): Queue Pairs must be created, routing information
exchanged out of band, and RC QPs walked through the connection handshake.
These helpers charge the simulated control-path time that the
connection-time experiment (Fig 12) measures, and a cluster-wide
:class:`EndpointRegistry` plays the role of the paper's "unique integer"
endpoint identifiers (used like a TCP address/port pair).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.verbs.constants import AddressHandle, VerbsError
from repro.verbs.device import VerbsContext
from repro.verbs.qp import QueuePair

__all__ = ["EndpointRegistry", "connect_rc_pair", "setup_ud_qp", "create_ah"]


class EndpointRegistry:
    """Cluster-wide name service mapping endpoint ids to bootstrap info.

    In the real system this is a TCP-based exchange performed once at
    query start; the information published here (QP numbers, registered
    buffer addresses, credit and ring words) is exactly what the C++
    implementation ships over that side channel.
    """

    def __init__(self):
        self._published: Dict[int, Dict[str, Any]] = {}

    def dispose(self) -> None:
        """Forget every published endpoint (end-of-query teardown)."""
        self._published.clear()

    def publish_endpoint(self, endpoint_id: int, info: Dict[str, Any]) -> None:
        """Publish one endpoint's bootstrap info under its integer id."""
        if endpoint_id in self._published:
            raise VerbsError(f"endpoint id {endpoint_id!r} already published")
        self._published[endpoint_id] = info

    def lookup_endpoint(self, endpoint_id: int) -> Dict[str, Any]:
        """Resolve the bootstrap info published for an endpoint id."""
        try:
            return self._published[endpoint_id]
        except KeyError:
            raise VerbsError(
                f"endpoint id {endpoint_id!r} has not been published"
            ) from None

    def unpublish_endpoint(self, endpoint_id: int) -> None:
        """Forget one endpoint's bootstrap info (end-of-job teardown in
        the multi-tenant service; a no-op for unknown ids)."""
        self._published.pop(endpoint_id, None)


def connect_rc_pair(ctx: VerbsContext, qp: QueuePair,
                    remote: AddressHandle):
    """Process fragment: RC connection handshake for one local QP.

    Charges the per-QP connect time (QP state transitions plus the
    routing-information round trip).  Each side pays for its own QP, as in
    the real handshake.
    """
    yield ctx.config.rc_qp_connect_ns
    qp.connect(remote)


def setup_ud_qp(ctx: VerbsContext, qp: QueuePair):
    """Process fragment: bring a UD QP to ready-to-send."""
    yield ctx.config.ud_qp_setup_ns
    qp.activate()


def create_ah(ctx: VerbsContext, node_id: int, qpn: int):
    """Process fragment: create an address handle for a UD destination.

    Every call pays ``ah_create_ns``, as every ``ibv_create_ah`` does;
    the handle it returns is the cluster's one for ``(node_id, qpn)``,
    shared by every peer that addresses that QP.
    """
    yield ctx.config.ah_create_ns
    ah = AddressHandle(node_id, qpn)
    return ctx.fabric.address_handles.setdefault(ah, ah)
