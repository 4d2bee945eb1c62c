"""Wiring a shuffle stage across a cluster.

A :class:`ShuffleStage` instantiates, for one producer/consumer operator
pair of a query plan, the SEND and RECEIVE endpoints on every node, wires
the connections (send endpoint *j* on node *s* pairs with receive
endpoint ``j % k_recv`` on each destination node), runs the two-phase
setup (create + publish, then resolve + connect) with per-node timing —
which is exactly what the connection-cost experiment (Fig 12) measures —
and exposes the endpoints for building SHUFFLE / RECEIVE operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Union

from repro.core.endpoint import EndpointConfig
from repro.core.groups import TransmissionGroups
from repro.core.policy import StagePlan
from repro.core.transport.runtime import ReceiveEndpoint, SendEndpoint
from repro.fabric.network import Fabric
from repro.sim import AllOf
from repro.verbs.cm import EndpointRegistry

__all__ = ["ShuffleStage", "StageStats"]


@dataclass(frozen=True)
class StageStats:
    """Transport stats of one stage, summed over all its endpoints."""

    #: time receiver threads spent blocked waiting for data.
    recv_data_wait_ns: int
    #: time sender threads spent stalled for flow-control credit.
    credit_wait_ns: int
    credit_stalls: int
    #: every Queue Pair number the stage created, cluster-wide.
    qpns: FrozenSet[int]


class ShuffleStage:
    """All endpoints of one shuffle operator pair across the cluster."""

    def __init__(
        self,
        fabric: Fabric,
        plan: StagePlan,
        groups: Union[TransmissionGroups,
                      Callable[[int], TransmissionGroups]],
        config: Optional[EndpointConfig] = None,
        *,
        registry: Optional[EndpointRegistry] = None,
    ):
        if not isinstance(plan, StagePlan):
            raise TypeError(
                f"ShuffleStage runs a StagePlan, not {plan!r}: build stages "
                f"with Cluster.shuffle_stage(design, groups), which resolves "
                f"design names, Designs and policies to a plan")
        self.fabric = fabric
        #: the plan this stage executes.
        self.plan = plan
        self.design = plan.design
        self.threads = fabric.cluster.threads_per_node
        self.k, ep_threads, self.config = self.design.stage_config(
            self.threads, plan.num_endpoints,
            config if config is not None else EndpointConfig(),
            fabric.config.mtu)
        if self.k > self.threads:
            raise ValueError(
                f"more endpoints ({self.k}) than threads ({self.threads})")
        self.registry = registry if registry is not None else EndpointRegistry()

        group_fn = groups if callable(groups) else (lambda _node: groups)
        #: every node sends; receivers are the nodes some group names.
        self.sender_nodes = tuple(range(fabric.num_nodes))
        self.groups_for: Dict[int, TransmissionGroups] = {
            s: group_fn(s) for s in self.sender_nodes}

        self.receiver_nodes = tuple(sorted({
            dest
            for s in self.sender_nodes
            for dest in self.groups_for[s].all_destinations
        }))

        # Allocate cluster-unique endpoint ids first, then build objects.
        send_ids = {
            (s, j): next(fabric.endpoint_ids)
            for s in self.sender_nodes for j in range(self.k)
        }
        recv_ids = {
            (d, r): next(fabric.endpoint_ids)
            for d in self.receiver_nodes for r in range(self.k)
        }

        #: node -> list of SEND endpoints (index = endpoint slot).
        self.send_endpoints: Dict[int, List[SendEndpoint]] = {}
        #: node -> list of RECEIVE endpoints.
        self.recv_endpoints: Dict[int, List[ReceiveEndpoint]] = {}
        sources: Dict[int, List] = {eid: [] for eid in recv_ids.values()}

        for s in self.sender_nodes:
            ctx = fabric.verbs_contexts[s]
            destinations = self.groups_for[s].all_destinations
            endpoints = []
            for j in range(self.k):
                peers = {d: recv_ids[(d, j % self.k)] for d in destinations}
                ep = self.design.send_cls(
                    ctx, send_ids[(s, j)], self.config, destinations,
                    self.groups_for[s].num_groups, peers, ep_threads)
                endpoints.append(ep)
                for d in destinations:
                    sources[peers[d]].append((s, ep.endpoint_id))
            self.send_endpoints[s] = endpoints

        for d in self.receiver_nodes:
            ctx = fabric.verbs_contexts[d]
            self.recv_endpoints[d] = [
                self.design.recv_cls(
                    ctx, recv_ids[(d, r)], self.config,
                    sources[recv_ids[(d, r)]], ep_threads)
                for r in range(self.k)
            ]

        #: per-node connection build time, filled in by :meth:`setup`.
        self.setup_ns: Dict[int, int] = {}
        self._disposed = False

    # -- lifecycle ------------------------------------------------------------

    def _node_endpoints(self, node: int) -> List:
        return (self.send_endpoints.get(node, []) +
                self.recv_endpoints.get(node, []))

    def setup(self):
        """Process fragment: run two-phase setup, recording per-node time.

        Endpoints on one node set up sequentially (one control thread per
        node, as in the real system); nodes proceed in parallel.
        """
        sim = self.fabric.sim
        nodes = self.sender_nodes
        start = sim.now

        def phase1(node):
            for ep in self._node_endpoints(node):
                yield from ep.setup(self.registry)
            return sim.now - start

        procs = [sim.process(phase1(n), name=f"stage-setup-{n}") for n in nodes]
        phase1_ns = yield AllOf(sim, procs)

        def phase2(node):
            for ep in self._node_endpoints(node):
                yield from ep.connect(self.registry)
            return sim.now

        mid = sim.now
        procs = [sim.process(phase2(n), name=f"stage-connect-{n}") for n in nodes]
        ends = yield AllOf(sim, procs)
        for node, p1, end in zip(nodes, phase1_ns, ends):
            self.setup_ns[node] = p1 + (end - mid)
        return self.setup_ns

    def dispose(self) -> None:
        """Tear down this stage's transport resources (idempotent).

        Destroys every Queue Pair (evicting its NIC-cached context),
        deregisters the stage's pinned memory, releases completion
        queues, and unpublishes the endpoints from the registry — the
        per-job teardown the multi-tenant service relies on to reuse one
        cluster for a stream of jobs.  The stage must be quiesced: call
        only after the job's fragments have completed (plus a drain
        grace if other jobs keep the simulation running).
        """
        if self._disposed:
            return
        self._disposed = True
        for node in self.sender_nodes:
            ctx = self.fabric.verbs_contexts.get(node)
            if ctx is None:
                continue
            for ep in self._node_endpoints(node):
                for qp in {qp.qpn: qp for qp in ep.qps()}.values():
                    ctx.destroy_qp(qp)
                for mr in ep.registered_regions():
                    if not mr.deregistered:
                        ctx.dereg_mr(mr)
                if ep.cq is not None:
                    ctx.release_cq(ep.cq)
                self.registry.unpublish_endpoint(ep.endpoint_id)

    @property
    def max_setup_ns(self) -> int:
        return max(self.setup_ns.values()) if self.setup_ns else 0

    # -- introspection -----------------------------------------------------------

    def qps_created(self, node: int) -> int:
        """Queue Pairs this stage created on ``node``."""
        return sum(len(ep.qps()) for ep in self._node_endpoints(node))

    def registered_bytes(self, node: int) -> int:
        """Registered memory currently pinned on ``node`` by this stage."""
        return sum(mr.length
                   for ep in self._node_endpoints(node)
                   for mr in ep.registered_regions())

    def stats(self) -> StageStats:
        """Harvest the stage's transport stats (any time after setup)."""
        senders = [ep for eps in self.send_endpoints.values() for ep in eps]
        receivers = [ep for eps in self.recv_endpoints.values() for ep in eps]
        return StageStats(
            recv_data_wait_ns=sum(ep.data_wait_ns for ep in receivers),
            credit_wait_ns=sum(ep.credit_wait_ns for ep in senders),
            credit_stalls=sum(ep.credit_stalls for ep in senders),
            qpns=frozenset(qp.qpn for ep in senders + receivers
                           for qp in ep.qps()))
