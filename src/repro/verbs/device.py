"""Per-node verbs device context.

One :class:`VerbsContext` exists per node — the equivalent of an opened
``ibv_context`` plus its protection domain.  It creates Queue Pairs and
Completion Queues, registers memory with pinning-time accounting, and
resolves remote contexts for the transport state machines.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.fabric.network import Fabric
from repro.sim import Simulator
from repro.verbs.constants import QPT_UD, QPType, VerbsError
from repro.verbs.cq import CompletionQueue
from repro.verbs.memory import AddressSpace, MemoryRegion
from repro.verbs.qp import QueuePair

__all__ = ["VerbsContext"]


class VerbsContext:
    """The verbs interface of one node's adapter."""

    def __init__(self, sim: Simulator, fabric: Fabric, node_id: int):
        if node_id in fabric.verbs_contexts:
            raise VerbsError(f"node {node_id} already has a verbs context")
        self.sim = sim
        self.fabric = fabric
        self.node_id = node_id
        self.node = fabric.node(node_id)
        self.nic = self.node.nic
        self.config = fabric.config
        #: the cluster's observer bundle (tracer / links / sanitizer,
        #: read per use so one enabled later is still seen).
        self.telemetry = fabric.telemetry
        self.memory = AddressSpace(node_id, self.telemetry)
        self._qps: Dict[int, QueuePair] = {}
        self._cqs: List[CompletionQueue] = []
        self._qpn_counter = 0
        self.qps_created = 0
        #: cumulative simulated time spent pinning/registering memory.
        self.mr_register_ns = 0
        fabric.verbs_contexts[node_id] = self

    def dispose(self) -> None:
        """Break every reference cycle that runs through this context.

        Two loops close here: QP -> CQ -> subscribed endpoint -> QP, and
        context -> address space -> region write hook -> endpoint -> QP
        -> context.  Zero-remainder contract (see
        :meth:`Cluster.dispose`): once every context of a cluster is
        disposed, nothing built on it is kept alive by a cycle through
        the verbs layer.  Called on end-of-query teardown; the context
        is unusable afterwards.
        """
        for qp in self._qps.values():
            qp.send_cq = None
            qp.recv_cq = None
        for cq in self._cqs:
            cq.dispose()
        self._qps.clear()
        self._cqs.clear()
        self.memory.dispose()

    # -- object creation ---------------------------------------------------

    def _assign_qpn(self, qp: QueuePair) -> int:
        # Node-unique QPNs offset by node id make cross-node logs readable.
        self._qpn_counter += 1
        qpn = self.node_id * 1_000_000 + self._qpn_counter
        self._qps[qpn] = qp
        self.qps_created += 1
        return qpn

    def create_cq(self, depth: int = 4096) -> CompletionQueue:
        cq = CompletionQueue(self.sim, self.telemetry, depth)
        cq.node_id = self.node_id
        self._cqs.append(cq)
        return cq

    def create_qp(self, qp_type: QPType, send_cq: CompletionQueue,
                  recv_cq: CompletionQueue, max_send_wr: int = 1024,
                  max_recv_wr: int = 4096,
                  tenant: Optional[str] = None) -> QueuePair:
        """``ibv_create_qp``.  Control-path time is charged by the caller
        (see :mod:`repro.verbs.cm`), keeping this immediate for tests.

        ``tenant`` tags the QP for service-layer accounting; when a quota
        arbiter is installed on the fabric it may refuse the creation by
        raising, in which case the QP is rolled back before propagating.
        """
        qp = QueuePair(self, qp_type, send_cq, recv_cq,
                       max_send_wr, max_recv_wr)
        qp.tenant = tenant
        quotas = self.fabric.quotas
        if quotas is not None:
            try:
                quotas.on_qp_created(self.node_id, tenant, qp)
            except Exception:
                del self._qps[qp.qpn]
                self.qps_created -= 1
                raise
        return qp

    def destroy_qp(self, qp: QueuePair) -> None:
        """``ibv_destroy_qp``: drop the QP, its multicast memberships and
        its cached NIC context.

        Used by end-of-job teardown in the multi-tenant service; the QP
        must be quiesced (no completions in flight).  Real hardware
        refuses to destroy a QP still attached to a group, so the QP is
        detached from every group it joined first.
        """
        if qp.qp_type is QPT_UD:
            for mgid in self.fabric.mcast_members:
                self.mcast_detach(mgid, qp)
            # Its address handle goes with it (QPNs are never reused).
            self.fabric.address_handles.pop((self.node_id, qp.qpn), None)
        self._qps.pop(qp.qpn, None)
        qp.send_cq = None
        qp.recv_cq = None
        self.nic.qp_cache.evict(qp.qpn)
        quotas = self.fabric.quotas
        if quotas is not None:
            quotas.on_qp_destroyed(self.node_id, qp.tenant, qp)

    def release_cq(self, cq: CompletionQueue) -> None:
        """Drop a completion queue created by :meth:`create_cq`."""
        if cq in self._cqs:
            self._cqs.remove(cq)
            cq.dispose()

    def qp(self, qpn: int) -> QueuePair:
        try:
            return self._qps[qpn]
        except KeyError:
            raise VerbsError(f"no QP {qpn} on node {self.node_id}") from None

    def mcast_attach(self, mgid: int, qp: QueuePair) -> None:
        """``ibv_attach_mcast``: join a UD QP to a multicast group."""
        if qp.qp_type is not QPT_UD:
            raise VerbsError("only UD QPs can join multicast groups")
        self.fabric.mcast_attach(mgid, self.node_id, qp.qpn)

    def mcast_detach(self, mgid: int, qp: QueuePair) -> None:
        self.fabric.mcast_detach(mgid, self.node_id, qp.qpn)

    def peer_context(self, node_id: int) -> "VerbsContext":
        try:
            return self.fabric.verbs_contexts[node_id]
        except KeyError:
            raise VerbsError(f"node {node_id} has no verbs context") from None

    # -- memory registration -------------------------------------------------

    def reg_mr(self, length: int,
               tenant: Optional[str] = None) -> MemoryRegion:
        """Register ``length`` bytes (immediate; no time charged).

        ``tenant`` tags the region for service-layer accounting.
        """
        mr = self.memory.register(length)
        mr.tenant = tenant
        quotas = self.fabric.quotas
        if quotas is not None:
            quotas.on_mr_registered(self.node_id, tenant, mr)
        return mr

    def charge_registration(self, length: int):
        """Process fragment: charge the pin+register time of ``length``
        bytes (the region itself is created separately, e.g. by a
        BufferPool)."""
        config = self.config
        pages = max(1, -(-length // config.page_size))
        cost = config.mr_register_base_ns + pages * config.mr_register_ns_per_page
        self.mr_register_ns += cost
        yield cost

    def reg_mr_timed(self, length: int, tenant: Optional[str] = None):
        """Process fragment: register memory, charging pin time.

        Usage: ``mr = yield from ctx.reg_mr_timed(nbytes)``.
        """
        yield from self.charge_registration(length)
        return self.reg_mr(length, tenant=tenant)

    def dereg_mr(self, mr: MemoryRegion) -> None:
        self.memory.deregister(mr)
        quotas = self.fabric.quotas
        if quotas is not None:
            quotas.on_mr_deregistered(self.node_id, mr.tenant, mr)

    # -- accounting ------------------------------------------------------------

    @property
    def registered_bytes(self) -> int:
        return self.memory.registered_bytes

    @property
    def peak_registered_bytes(self) -> int:
        return self.memory.peak_registered_bytes
