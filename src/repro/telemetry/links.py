"""Causal link records: the raw material of the critical-path analyzer.

The tracer answers "what happened when"; this module answers "what paid
for what".  While a :class:`FlowRecorder` is installed (see
``Telemetry.enable_links`` / ``Cluster.enable_reporting``), three kinds
of record accumulate:

* **flows** — one per posted work request, forming the causal DAG: the
  ``prev`` edge chains WRs on the same QP (FIFO order), the ``trigger``
  edge points from a credit-return WR back to the data flow whose buffer
  release produced it.  Posting and delivery timestamps give per-message
  latencies.
* **pipe intervals** — every resource-occupancy interval of a NIC
  processor, host link, or switch trunk, one flat tuple
  ``(kind, owner, start, base_ns, penalty_ns, extra_ns, waited_ns,
  flow)``: ``kind`` is ``proc`` (NIC WR processor), ``egress`` /
  ``ingress`` (host links) or ``trunk`` (switch port); the interval
  spans ``[start, start + base_ns + penalty_ns + extra_ns)``, where
  ``base_ns`` is serialization or baseline WR processing, ``penalty_ns``
  a QP-context-cache miss and ``extra_ns`` the payload DMA fetch of a
  non-inlined Write; ``waited_ns`` is how long the unit queued behind
  the pipe's FIFO backlog before ``start``.
* **stalls** — endpoint-visible waiting (``credit-stall``,
  ``free-wait``, ``data-wait``, ``rnr-stall``), one flat tuple
  ``(node, ep, kind, start, duration)``.

Recording is append-only and never touches the event heap, RNG, or any
process state, so enabling it cannot perturb simulated time — the same
guarantee the tracer gives.  All records share one :class:`TraceBudget`;
when it runs dry the recorder degrades by dropping records (flows come
back as id ``0``) instead of raising, and the attribution in
``repro.obs`` simply explains less of the window.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.telemetry.trace import TraceBudget

__all__ = ["FlowRecord", "FlowRecorder", "DEFAULT_LINK_RECORDS"]

#: default budget for link records (flows + intervals + stalls combined).
DEFAULT_LINK_RECORDS = 2_000_000


class FlowRecord:
    """One message lifecycle: WR post through delivery."""

    __slots__ = ("id", "kind", "src", "dst", "size", "posted_ns",
                 "delivered_ns", "prev", "trigger")

    def __init__(self, flow_id: int, kind: str, src: int, dst: int,
                 size: int, posted_ns: int, prev: int, trigger: int):
        self.id = flow_id
        self.kind = kind
        self.src = src
        self.dst = dst
        self.size = size
        self.posted_ns = posted_ns
        self.delivered_ns: Optional[int] = None
        #: previous flow posted on the same QP (FIFO predecessor).
        self.prev = prev
        #: data flow whose buffer release caused this (credit) flow.
        self.trigger = trigger


class FlowRecorder:
    """Accumulates flow/interval/stall records for one cluster run."""

    def __init__(self, sim, budget: Optional[TraceBudget] = None):
        self.sim = sim
        self.budget = budget if budget is not None else TraceBudget(
            DEFAULT_LINK_RECORDS)
        self.flows: Dict[int, FlowRecord] = {}
        self.pipes: List[tuple] = []
        self.stalls: List[tuple] = []
        #: set when the budget ran dry and records were dropped.
        self.truncated = False
        #: one-shot trigger edge: set by the receive endpoint immediately
        #: before returning credit; consumed by the next new_flow() on the
        #: same synchronous call chain (release -> post credit -> post_send).
        self.pending_trigger = 0
        self._next_flow = 1
        #: id(buffer) -> data flow last delivered into that buffer.
        self._buffer_flow: Dict[int, int] = {}

    # -- flow DAG ----------------------------------------------------------

    def new_flow(self, kind: str, src: int, dst: int, size: int,
                 prev: int = 0) -> int:
        """Allocate a flow id for a freshly posted WR; 0 when over budget."""
        trigger = self.pending_trigger
        self.pending_trigger = 0
        if not self.budget.take(1):
            self.truncated = True
            return 0
        flow_id = self._next_flow
        self._next_flow += 1
        self.flows[flow_id] = FlowRecord(flow_id, kind, src, dst, size,
                                         self.sim.now, prev, trigger)
        return flow_id

    def on_deliver(self, flow: int, buf=None) -> None:
        """Stamp delivery time; remember which buffer now holds the flow."""
        record = self.flows.get(flow)
        if record is not None:
            record.delivered_ns = self.sim.now
        if buf is not None:
            self._buffer_flow[id(buf)] = flow

    def buffer_flow(self, buf) -> int:
        """The data flow last delivered into ``buf`` (0 if unknown)."""
        return self._buffer_flow.get(id(buf), 0)

    # -- intervals ---------------------------------------------------------

    def pipe(self, kind: str, owner, pipe, base_ns: int,
             penalty_ns: int = 0, extra_ns: int = 0, flow: int = 0) -> None:
        """Record the interval ``pipe`` is about to be charged with.

        Call immediately before the pipe entry: the pre-submit
        ``_busy_until`` gives the interval start and the queueing delay
        without touching simulation state."""
        if not self.budget.take(1):
            self.truncated = True
            return
        now = self.sim.now
        start = pipe._busy_until
        if start < now:
            start = now
        self.pipes.append((kind, owner, start, base_ns, penalty_ns, extra_ns,
                           start - now, flow))

    def stall(self, node: int, ep: int, kind: str, start: int,
              duration: int) -> None:
        if duration <= 0:
            return
        if not self.budget.take(1):
            self.truncated = True
            return
        self.stalls.append((node, ep, kind, start, duration))

    # -- accounting --------------------------------------------------------

    @property
    def dropped_records(self) -> int:
        return self.budget.dropped
