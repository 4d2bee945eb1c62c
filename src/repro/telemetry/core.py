"""The per-cluster telemetry object: observers + harvesting.

Design notes
------------

Nothing calls into telemetry per event: the NIC work-request loop, the
QP state machines, the endpoint send loop and the service keep plain
integer attributes (``nic.tx_messages += 1``), and
:meth:`Telemetry.snapshot` harvests those attributes lazily, so the
instrumentation cost per event is one integer add regardless of whether
telemetry is enabled.  What the harvest cannot reach by attribute (the
service layer, which this module must not import) registers a
zero-argument callable in :attr:`Telemetry.callbacks`, polled at
snapshot time.

To avoid import cycles this module never imports the fabric/verbs/core
layers — harvesting is duck-typed over the objects handed to
:meth:`attach_fabric` / :meth:`register_endpoint`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.telemetry.links import FlowRecorder
from repro.telemetry.trace import TraceBudget, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulator

__all__ = [
    "Telemetry",
    "set_enabled",
    "is_enabled",
    "nic_cache_stats",
]

#: global default for newly created Telemetry objects (the no-op mode).
_ENABLED = True

#: (pipe kind, trace track, span name) of the three pipes of a NIC.
_NIC_PIPES = (("proc", "nicproc", "wr"), ("egress", "egress", "tx"),
              ("ingress", "ingress", "rx"))


def set_enabled(flag: bool) -> None:
    """Set the global default mode for new :class:`Telemetry` objects.

    Disabling stops endpoint tracking and the polling of snapshot
    callbacks.  The always-on plain counters keep counting (they cost
    one int add each) and still appear in snapshots.
    """
    global _ENABLED
    _ENABLED = bool(flag)


def is_enabled() -> bool:
    return _ENABLED


class Telemetry:
    """The observer bundle of one simulated cluster.

    Owned by :class:`~repro.cluster.Cluster` and handed, once, to every
    object that consults an observer (fabric, NICs, pipes, verbs
    contexts, CQs, memory regions).  It is the only place an observer is
    stored: ``tracer``, ``links``, ``sanitizer`` and ``qp_miss_by_qpn``
    are ``None`` when off, each site reads the field where it uses it,
    and enabling one — at any time — sets that one field.

    A pipe charge makes one observer call, :meth:`pipe`, and only while
    ``pipes_observed`` says the tracer or the link recorder is on.
    """

    def __init__(self, sim: "Simulator", num_nodes: int):
        self.sim = sim
        self.num_nodes = num_nodes
        self.enabled = _ENABLED
        #: name -> zero-argument callable, polled into the fabric
        #: section of every snapshot taken while ``enabled``.
        self.callbacks: Dict[str, Callable[[], Any]] = {}
        self._fabric = None
        self._endpoints: List[Any] = []
        #: trace-event recorder (Chrome trace JSON).
        self.tracer: Optional[Tracer] = None
        #: causal link recorder (repro.obs substrate).
        self.links: Optional[FlowRecorder] = None
        #: runtime protocol sanitizer (repro.analysis; duck-typed).
        self.sanitizer: Optional[Any] = None
        #: QP-context misses per QPN, for the service layer's tenant
        #: attribution.  QPNs are cluster-unique and never reused, so a
        #: job's misses are the sum over its own QPNs after the fact.
        self.qp_miss_by_qpn: Optional[Dict[int, int]] = None
        #: set once the tracer or the link recorder is on.
        self.pipes_observed = False
        #: (kind, owner) of each fabric pipe -> its trace node, track
        #: and span name.
        self._pipe_tracks: Dict[Tuple[str, Any], Tuple[int, str, str]] = {}
        #: the final snapshot, once the cluster has been disposed.
        self._sealed: Optional[Dict[str, Any]] = None

    # -- wiring ------------------------------------------------------------

    def attach_fabric(self, fabric) -> None:
        """Bind to the fabric whose nodes this object observes and give
        its pipes their trace tracks: one pid per node, and — after the
        real nodes — one pseudo-node per switch with a thread per trunk
        port."""
        self._fabric = fabric
        tracks = self._pipe_tracks
        for node in fabric.nodes:
            for kind, track, name in _NIC_PIPES:
                tracks[kind, node.id] = (node.id, track, name)
        for switch in fabric.topology.switches:
            for port in switch.ports:
                tracks["trunk", port.name] = (self.num_nodes + switch.index,
                                              port.local_name, "fwd")
        if self.tracer is not None:
            self._name_switches()

    def _name_switches(self) -> None:
        for switch in self._fabric.topology.switches:
            if switch.ports:
                self.tracer.name_process(self.num_nodes + switch.index,
                                         switch.name)

    def register_endpoint(self, endpoint) -> None:
        """Called by endpoint constructors so stalls/skew can be harvested."""
        if self.enabled:
            self._endpoints.append(endpoint)

    def enable_tracing(self, budget: Optional[TraceBudget] = None,
                       pid_base: int = 0, label: str = "") -> Tracer:
        """Start recording trace events; returns the live tracer.

        Without a shared ``budget`` the tracer gets a default
        :class:`TraceBudget` of its own.  Idempotent: a second call
        returns the tracer already recording (its budget and pid
        namespace stand).
        """
        if self.tracer is None:
            self.tracer = Tracer(self.sim, budget=budget,
                                 pid_base=pid_base, label=label)
            self.pipes_observed = True
            if self._fabric is not None:
                self._name_switches()
        return self.tracer

    def enable_links(self, budget: Optional[TraceBudget] = None
                     ) -> FlowRecorder:
        """Start recording causal link records (flows, pipe intervals,
        stalls) — the input of the ``repro.obs`` critical-path analyzer.

        Like tracing, recording is append-only and cannot perturb the
        simulation; the shared ``budget`` caps memory across a session.
        """
        if self.links is None:
            self.links = FlowRecorder(self.sim, budget=budget)
            self.pipes_observed = True
        return self.links

    def pipe(self, kind: str, owner: Any, pipe, base_ns: int,
             penalty_ns: int, extra_ns: int, flow: int,
             size: Optional[int] = None) -> None:
        """Record the interval ``pipe`` is about to be charged with in
        every observer that is on: the link recorder's row (see
        :mod:`repro.telemetry.links`) and an ``X`` span on the pipe's
        trace track, with ``size`` as its byte count.  ``owner`` is a
        node id or a trunk's port name.  Call while
        :attr:`pipes_observed`, immediately before the charge: the
        pipe's ``_busy_until`` then gives the interval's start and its
        wait behind the FIFO backlog without touching simulation
        state."""
        now = self.sim.now
        start = pipe._busy_until
        if start < now:
            start = now
        links = self.links
        if links is not None:
            links.pipe(kind, owner, start, base_ns, penalty_ns, extra_ns,
                       start - now, flow)
        tracer = self.tracer
        duration = base_ns + penalty_ns + extra_ns
        if tracer is not None and duration > 0:
            node, track, name = self._pipe_tracks[kind, owner]
            tracer.complete(node, track, name, start, duration, "fabric",
                            size)

    def enable_sanitizer(self, sanitizer):
        """Install the runtime protocol sanitizer; returns it."""
        self.sanitizer = sanitizer
        return sanitizer

    def enable_qp_miss_map(self) -> None:
        """Start counting QP-context misses per QPN (idempotent)."""
        if self.qp_miss_by_qpn is None:
            self.qp_miss_by_qpn = {}

    # -- harvesting --------------------------------------------------------

    def seal(self) -> None:
        """Take the final snapshot and let go of the cluster.

        Called by :meth:`Cluster.dispose` while ``fabric.nodes`` is still
        populated: a session that checkpoints after the experiment
        disposed its clusters (and ``build_run_report``, which needs only
        the snapshot, the link records and ``sim.now``) still sees every
        per-node counter, and the endpoints and callbacks stop pinning
        the dead cluster's object graph until then.
        """
        self._sealed = self.snapshot()
        self._fabric = None
        if self.sanitizer is not None:
            # Nothing runs after this, so nothing is left to mirror onto
            # the tracer; the sanitizer's way back here would be a cycle.
            self.sanitizer.telemetry = None
        self._endpoints.clear()
        self.callbacks.clear()

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-ready snapshot: fabric-wide plus per-node metrics
        (the sealed one once the cluster is disposed)."""
        if self._sealed is not None:
            return self._sealed
        sim = self.sim
        fabric: Dict[str, Any] = {
            "sim.now_ns": sim.now,
            "sim.events_dispatched": sim.events_dispatched,
            "sim.process_wakeups": sim.process_wakeups,
            "sim.processes_started": sim.processes_started,
            "sim.max_queue_depth": sim.max_queue_depth,
        }
        nodes: Dict[str, Dict[str, Any]] = {}
        fb = self._fabric
        if fb is not None:
            fabric["fabric.delivered_messages"] = fb.delivered_messages
            fabric["fabric.dropped_messages"] = fb.dropped_messages
            fabric["fabric.link_bytes"] = {
                f"{s}->{d}": v
                for s, row in enumerate(fb.link_bytes)
                for d, v in enumerate(row) if v
            }
            fabric["topology.kind"] = fb.topology.spec.kind
            ports = {
                port.name: {
                    "bytes": int(port.pipe.total_units),
                    "busy_ns": port.pipe.busy_ns,
                    "utilization": round(port.utilization(sim.now), 4),
                } for port in fb.topology.ports()}
            if ports:
                fabric["topology.ports"] = ports
            for node in fb.nodes:
                nodes[str(node.id)] = self._node_snapshot(node)
        for ep in self._endpoints:
            self._merge_endpoint(nodes.setdefault(str(ep.ctx.node_id), {}), ep)
        for metrics in nodes.values():
            self._finish_skew(metrics)
        if self.enabled:
            for name, poll in self.callbacks.items():
                fabric[name] = poll()
        return {"fabric": fabric, "nodes": nodes}

    def _node_snapshot(self, node) -> Dict[str, Any]:
        nic = node.nic
        elapsed = max(1, self.sim.now)
        out: Dict[str, Any] = {
            "nic.tx_messages": nic.tx_messages,
            "nic.rx_messages": nic.rx_messages,
            "nic.tx_bytes": int(nic.egress.total_units),
            "nic.rx_bytes": int(nic.ingress.total_units),
            "nic.qp_cache.hits": nic.qp_cache.hits,
            "nic.qp_cache.misses": nic.qp_cache.misses,
            "nic.qp_cache.evictions": nic.qp_cache.evictions,
            "nic.qp_cache.occupancy": nic.qp_cache.occupancy,
            "nic.qp_cache.miss_rate": round(nic.qp_cache.miss_rate, 6),
            "nic.pcie_stall_ns": nic.pcie_stall_ns,
            "nic.processor_busy_ns": nic.processor.busy_ns,
            "link.egress_busy_ns": nic.egress.busy_ns,
            "link.ingress_busy_ns": nic.ingress.busy_ns,
            "link.egress_utilization": round(
                min(1.0, nic.egress.busy_ns / elapsed), 4),
            "link.ingress_utilization": round(
                min(1.0, nic.ingress.busy_ns / elapsed), 4),
        }
        ctx = self._fabric.verbs_contexts.get(node.id)
        if ctx is not None:
            qps = list(ctx._qps.values())
            out.update({
                "verbs.qps_created": ctx.qps_created,
                "verbs.sends_posted": sum(q.sends_posted for q in qps),
                "verbs.recvs_posted": sum(q.recvs_posted for q in qps),
                "verbs.send_wrs_in_flight": sum(
                    q._send_outstanding for q in qps),
                "verbs.ud_drops": sum(q.ud_drops for q in qps),
                "verbs.rnr_events": sum(q.rnr_events for q in qps),
                "verbs.rnr_stall_ns": sum(q.rnr_stall_ns for q in qps),
                "verbs.cqes_pushed": sum(cq.pushed for cq in ctx._cqs),
                "verbs.cqes_polled": sum(cq.polled for cq in ctx._cqs),
                "verbs.registered_bytes": ctx.registered_bytes,
                "verbs.peak_registered_bytes": ctx.peak_registered_bytes,
                "verbs.mr_register_ns": ctx.mr_register_ns,
            })
        return out

    @staticmethod
    def _merge_endpoint(metrics: Dict[str, Any], ep) -> None:
        def add(key: str, value) -> None:
            metrics[key] = metrics.get(key, 0) + value

        if hasattr(ep, "messages_sent"):  # send side
            add("ep.messages_sent", ep.messages_sent)
            add("ep.bytes_sent", ep.bytes_sent)
            add("ep.credit_wait_ns", ep.credit_wait_ns)
            add("ep.credit_stalls", ep.credit_stalls)
            add("ep.free_wait_ns", ep.free_wait_ns)
            if ep.bytes_by_dest:
                merged = metrics.setdefault("ep.bytes_by_dest", {})
                for dest, nbytes in ep.bytes_by_dest.items():
                    key = str(dest)
                    merged[key] = merged.get(key, 0) + nbytes
        if hasattr(ep, "messages_received"):  # receive side
            add("ep.messages_received", ep.messages_received)
            add("ep.bytes_received", ep.bytes_received)
            add("ep.data_wait_ns", ep.data_wait_ns)

    @staticmethod
    def _finish_skew(metrics: Dict[str, Any]) -> None:
        """Per-destination skew: max over mean of this node's sent bytes."""
        by_dest = metrics.get("ep.bytes_by_dest")
        if not by_dest:
            return
        values = list(by_dest.values())
        mean = sum(values) / len(values)
        metrics["ep.dest_skew"] = round(max(values) / mean, 4) if mean else 0.0


def nic_cache_stats(cluster) -> Dict[str, Any]:
    """Aggregate QP-context-cache counters across all NICs of a cluster."""
    fabric = cluster.fabric
    hits = sum(n.nic.qp_cache.hits for n in fabric.nodes)
    misses = sum(n.nic.qp_cache.misses for n in fabric.nodes)
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "evictions": sum(n.nic.qp_cache.evictions for n in fabric.nodes),
        "miss_rate": misses / total if total else 0.0,
        "pcie_stall_ns": sum(n.nic.pcie_stall_ns for n in fabric.nodes),
    }
