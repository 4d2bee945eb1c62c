"""The simulated network adapter.

A NIC has three serialized resources:

* an **egress pipe** draining outbound bytes at the link rate,
* an **ingress pipe** draining inbound bytes at the link rate,
* a **processing engine** that executes work requests (doorbell handling,
  WQE fetch, DMA setup) one at a time.

It also owns the **Queue Pair context cache**: Mellanox NICs keep QP state
in a small on-chip cache backed by host memory over PCIe; touching a QP
that fell out of the cache stalls the processing engine for a PCIe round
trip.  This is the documented mechanism ([8, 16, 17] in the paper) behind
the degradation of the many-Queue-Pair designs on FDR hardware at 16 nodes
(Figs 10 and 11), so it is modeled explicitly.

Trains: the tx/rx entry points charge their pipes once per message
(one event, see :meth:`~repro.sim.primitives.RatePipe.submit_train`).
The QP-context cache and the PCIe miss penalty are charged once per
message too — real NICs hold the QP context across a message's
back-to-back packets.

Every charge of the three pipes goes through :meth:`NIC.submit_wr`,
:meth:`NIC.submit_tx` or :meth:`NIC.submit_rx` — MPI's runtime too,
whose work requests touch no QP context.  While the tracer or the link
recorder is on, each makes one call, ``telemetry.pipe``, with the
interval's base / cache-penalty / DMA-extra decomposition before the
charge; it becomes one row of the pipe store both read, and recording
only reads pipe state, so it cannot perturb event order.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Optional

from repro.sim import RatePipe, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.config import NetworkConfig
    from repro.telemetry.core import Telemetry

__all__ = ["QPContextCache", "NIC"]


class QPContextCache:
    """LRU cache of Queue Pair contexts held on the NIC.

    ``touch`` records an access and reports whether it hit.  The miss
    penalty is charged by the NIC's processing engine, not here, so the
    cache itself stays a pure bookkeeping structure that tests can probe.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def touch(self, qpn: int) -> bool:
        """Access QP ``qpn``; returns True on hit, False on miss."""
        if qpn in self._entries:
            self._entries.move_to_end(qpn)
            self.hits += 1
            return True
        self.misses += 1
        self._entries[qpn] = None
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return False

    def evict(self, qpn: int) -> None:
        """Drop a QP context (e.g. when the QP is destroyed)."""
        self._entries.pop(qpn, None)

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


class NIC:
    """One node's network adapter."""

    def __init__(self, sim: Simulator, node_id: int, config: "NetworkConfig",
                 telemetry: "Telemetry", disable_qp_cache: bool = False):
        self.sim = sim
        self.node_id = node_id
        self.config = config
        #: observer bundle; ``links`` / ``qp_miss_by_qpn`` read per use.
        self.telemetry = telemetry
        self.egress = RatePipe(sim, config.link_bytes_per_ns, f"egress[{node_id}]")
        self.ingress = RatePipe(sim, config.link_bytes_per_ns, f"ingress[{node_id}]")
        # The processing engine is a unit-rate pipe used via submit_occupy():
        # each work element holds it for its processing time.
        self.processor = RatePipe(sim, 1.0, f"nicproc[{node_id}]")
        self.qp_cache = QPContextCache(config.qp_cache_entries)
        #: set True to model an adapter with effectively unlimited context
        #: cache (used by the QP-cache ablation benchmark).
        self.disable_qp_cache = disable_qp_cache
        self.tx_messages = 0
        self.rx_messages = 0
        #: cumulative processing-engine stall waiting on PCIe round trips
        #: for cold QP contexts (the Fig 10/11 degradation mechanism).
        self.pcie_stall_ns = 0

    def _qp_touch_penalty(self, qpn: Optional[int]) -> int:
        if self.disable_qp_cache or qpn is None:
            return 0
        if self.qp_cache.touch(qpn):
            return 0
        by_qpn = self.telemetry.qp_miss_by_qpn
        if by_qpn is not None:
            by_qpn[qpn] = by_qpn.get(qpn, 0) + 1
        self.pcie_stall_ns += self.config.qp_cache_miss_ns
        return self.config.qp_cache_miss_ns

    def submit_wr(self, qpn: Optional[int], func: "Callable[[], None]",
                  extra_ns: int = 0) -> None:
        """Occupy the processing engine for one work request on ``qpn``
        (``None``: on no QP context, as MPI's runtime posts them); runs
        ``func()`` once the NIC has finished processing (the point at
        which the message starts serializing onto the wire)."""
        penalty = self._qp_touch_penalty(qpn)
        wr_ns = self.config.nic_wr_ns
        telemetry = self.telemetry
        if telemetry.pipes_observed:
            telemetry.pipe("proc", self.node_id, self.processor, wr_ns,
                           penalty, extra_ns)
        self.processor.submit_occupy(wr_ns + penalty + extra_ns, func)

    def submit_tx(self, wire_bytes: int, func: "Callable[[], None]") -> None:
        """Serialize a message of ``wire_bytes`` onto the outbound link;
        runs ``func()`` once it has fully left the NIC."""
        self.tx_messages += 1
        telemetry = self.telemetry
        if telemetry.pipes_observed:
            telemetry.pipe("egress", self.node_id, self.egress,
                           self.egress._serialization_ns(wire_bytes), 0, 0,
                           wire_bytes)
        self.egress.submit_train(wire_bytes, func)

    def submit_rx(self, wire_bytes: int, qpn: int,
                  func: "Callable[[], None]") -> None:
        """Serialize a message of ``wire_bytes`` off the inbound link into
        ``qpn``; runs ``func()`` once it has fully arrived.

        The receive path also touches the destination QP context, so a
        node being bombarded across many cold QPs slows down symmetrically
        with the send path.  The context is touched once per train (the
        NIC holds it across the message's back-to-back packets), so the
        miss penalty rides on the train as a whole.
        """
        self.rx_messages += 1
        penalty = self._qp_touch_penalty(qpn)
        telemetry = self.telemetry
        if telemetry.pipes_observed:
            telemetry.pipe("ingress", self.node_id, self.ingress,
                           self.ingress._serialization_ns(wire_bytes),
                           penalty, 0, wire_bytes)
        self.ingress.submit_train(wire_bytes, func, extra_ns=penalty)
