"""Causal link records: the raw material of the critical-path analyzer.

The tracer answers "what happened when"; this module answers "what paid
for what".  While a :class:`FlowRecorder` is installed (see
``Telemetry.enable_links`` / ``Cluster.enable_reporting``), three kinds
of record accumulate:

* **flows** — one per posted work request, forming the causal DAG, read
  as the tuple ``(kind, src, dst, size, posted_ns, delivered_ns, prev,
  trigger)``: flow id ``i`` is row ``i - 1``; the ``prev`` edge chains
  WRs on the same QP (FIFO order), the ``trigger`` edge points from a
  credit-return WR back to the data flow whose buffer release produced
  it (``0``: no edge).  Posting and delivery timestamps give
  per-message latencies; ``delivered_ns`` is ``-1`` until delivery
  stamps it in place.
* **pipe intervals** — every resource-occupancy interval of a NIC
  processor, host link, or switch trunk, read as the tuple
  ``(kind, owner, start, base_ns, penalty_ns, extra_ns, waited_ns,
  flow)``: ``kind`` is ``proc`` (NIC WR processor), ``egress`` /
  ``ingress`` (host links) or ``trunk`` (switch port); the interval
  spans ``[start, start + base_ns + penalty_ns + extra_ns)``, where
  ``base_ns`` is serialization or baseline WR processing, ``penalty_ns``
  a QP-context-cache miss and ``extra_ns`` the payload DMA fetch of a
  non-inlined Write; ``waited_ns`` is how long the unit queued behind
  the pipe's FIFO backlog before ``start``; ``owner`` is the node id,
  or a trunk's port name.
* **stalls** — endpoint-visible waiting (``credit-stall``,
  ``free-wait``, ``data-wait``, ``rnr-stall``), read as the tuple
  ``(node, ep, kind, start, duration)``.

Each stream is a :class:`~repro.telemetry.trace.RecordRows`, the row
store the tracer keeps its records in too: one flat ``array("q")``, a
fixed-width row of int64 fields per record (64 bytes a flow or an
interval, 40 a stall), with each kind and owner stored as its code in
the recorder's :class:`~repro.telemetry.trace.Codes`.  A hook appends
its row in one call (``frombytes`` of the stream's packed row).  The
streams iterate as the tuples above and :meth:`RecordRows.extend` takes
them; :meth:`RecordRows.columns` gives the analyzer the numeric columns
without copying.

Recording is append-only and never touches the event heap, RNG, or any
process state, so enabling it cannot perturb simulated time — the same
guarantee the tracer gives.  All records share one :class:`TraceBudget`;
when it runs dry the recorder degrades by dropping records (flows come
back as id ``0``) instead of raising, and the attribution in
``repro.obs`` simply explains less of the window.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.telemetry.trace import Codes, RecordRows, TraceBudget

__all__ = ["FlowRecorder", "DEFAULT_LINK_RECORDS"]

#: default budget for link records (flows + intervals + stalls combined).
DEFAULT_LINK_RECORDS = 2_000_000

class FlowRecorder:
    """Accumulates flow/interval/stall records for one cluster run."""

    def __init__(self, sim, budget: Optional[TraceBudget] = None):
        self.sim = sim
        self.budget = budget if budget is not None else TraceBudget(
            DEFAULT_LINK_RECORDS)
        #: the kinds and owners the records hold.
        self.codes = Codes()
        self.flows = RecordRows(self.codes, 8, coded=(0,))
        self.pipes = RecordRows(self.codes, 8, coded=(0, 1))
        self.stalls = RecordRows(self.codes, 5, coded=(2,))
        #: set when the budget ran dry and records were dropped.
        self.truncated = False
        #: one-shot trigger edge: set by the receive endpoint immediately
        #: before returning credit; consumed by the next new_flow() on the
        #: same synchronous call chain (release -> post credit -> post_send).
        self.pending_trigger = 0
        #: id(buffer) -> data flow last delivered into that buffer.
        self._buffer_flow: Dict[int, int] = {}

    # -- flow DAG ----------------------------------------------------------

    def new_flow(self, kind: str, src: int, dst: int, size: int,
                 prev: int = 0) -> int:
        """Allocate a flow id for a freshly posted WR; 0 when over budget."""
        trigger = self.pending_trigger
        self.pending_trigger = 0
        if not self.budget.take():
            self.truncated = True
            return 0
        self.flows.data.frombytes(self.flows.pack(
            self.codes[kind], src, dst, size, self.sim.now, -1, prev,
            trigger))
        return len(self.flows)

    def on_deliver(self, flow: int, buf=None) -> None:
        """Stamp delivery time of ``flow`` (an id :meth:`new_flow`
        returned, not 0); remember which buffer now holds it."""
        self.flows.data[(flow - 1) * 8 + 5] = self.sim.now
        if buf is not None:
            self._buffer_flow[id(buf)] = flow

    def buffer_flow(self, buf) -> int:
        """The data flow last delivered into ``buf`` (0 if unknown)."""
        return self._buffer_flow.get(id(buf), 0)

    # -- intervals ---------------------------------------------------------

    def pipe(self, kind: str, owner, start: int, base_ns: int,
             penalty_ns: int, extra_ns: int, waited_ns: int,
             flow: int) -> None:
        """Record one pipe interval, its fields in row order (module
        docstring); ``Telemetry.pipe`` reads them off the pipe."""
        if not self.budget.take():
            self.truncated = True
            return
        codes = self.codes
        self.pipes.data.frombytes(self.pipes.pack(
            codes[kind], codes[owner], start, base_ns, penalty_ns, extra_ns,
            waited_ns, flow))

    def stall(self, node: int, ep: int, kind: str, start: int,
              duration: int) -> None:
        if duration <= 0:
            return
        if not self.budget.take():
            self.truncated = True
            return
        self.stalls.data.frombytes(self.stalls.pack(
            node, ep, self.codes[kind], start, duration))

    # -- accounting --------------------------------------------------------

    @property
    def dropped_records(self) -> int:
        return self.budget.dropped
