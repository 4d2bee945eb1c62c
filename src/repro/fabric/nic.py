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

Trains: the egress and ingress pipes are charged once per message
(one event, see :meth:`~repro.sim.primitives.RatePipe.submit_train`),
by the fabric walk itself (:meth:`Fabric.route
<repro.fabric.network.Fabric.route>` and the flight's last stage).
The QP-context cache and the PCIe miss penalty are charged once per
message too (one :meth:`QPContextCache.touch`) — real NICs hold the
QP context across a message's back-to-back packets.

The processing engine is charged only through :meth:`NIC.submit_wr` —
by MPI's runtime too, whose work requests touch no QP context.  While
the tracer or the link recorder is on, every charge of the three pipes
makes one call, ``telemetry.pipe``, with the interval's base /
cache-penalty / DMA-extra decomposition before the charge; it becomes
one row of the pipe store both read, and recording only reads pipe
state, so it cannot perturb event order.
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

    ``touch`` records an access, hit or miss in one call, and reports
    whether it hit; a miss also counts in the observer bundle's per-QPN
    miss map while that is on.  The miss penalty is charged by the NIC's
    processing engine, not here, so the cache itself stays a pure
    bookkeeping structure that tests can probe.
    """

    def __init__(self, capacity: int,
                 telemetry: Optional["Telemetry"] = None):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: contexts dropped by :meth:`evict` (not by the LRU policy).
        self.dropped = 0
        self.telemetry = telemetry

    def touch(self, qpn: int) -> bool:
        """Access QP ``qpn``; returns True on hit, False on miss."""
        entries = self._entries
        if qpn in entries:
            entries.move_to_end(qpn)
            self.hits += 1
            return True
        self.misses += 1
        entries[qpn] = None
        if len(entries) > self.capacity:
            entries.popitem(last=False)
        telemetry = self.telemetry
        if telemetry is not None and telemetry.qp_miss_by_qpn is not None:
            by_qpn = telemetry.qp_miss_by_qpn
            by_qpn[qpn] = by_qpn.get(qpn, 0) + 1
        return False

    def evict(self, qpn: int) -> None:
        """Drop a QP context (e.g. when the QP is destroyed)."""
        if self._entries.pop(qpn, False) is None:  # it was cached
            self.dropped += 1

    @property
    def evictions(self) -> int:
        """Contexts the LRU policy pushed out: every miss loads one, and
        each has left again unless it is cached or was dropped."""
        return self.misses - len(self._entries) - self.dropped

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
        #: observer bundle; ``pipes_observed`` read per charge.
        self.telemetry = telemetry
        self.egress = RatePipe(sim, config.link_bytes_per_ns, f"egress[{node_id}]")
        self.ingress = RatePipe(sim, config.link_bytes_per_ns, f"ingress[{node_id}]")
        # The processing engine is a unit-rate pipe used via submit_occupy():
        # each work element holds it for its processing time.
        self.processor = RatePipe(sim, 1.0, f"nicproc[{node_id}]")
        self.qp_cache = QPContextCache(config.qp_cache_entries, telemetry)
        #: set True to model an adapter with effectively unlimited context
        #: cache (used by the QP-cache ablation benchmark).
        self.disable_qp_cache = disable_qp_cache
        self.tx_messages = 0
        self.rx_messages = 0

    @property
    def pcie_stall_ns(self) -> int:
        """Cumulative processing-engine stall waiting on PCIe round trips
        for cold QP contexts (the Fig 10/11 degradation mechanism): every
        miss costs one ``qp_cache_miss_ns``."""
        return self.qp_cache.misses * self.config.qp_cache_miss_ns

    def submit_wr(self, qpn: Optional[int], func: "Callable[[], None]",
                  extra_ns: int = 0) -> None:
        """Occupy the processing engine for one work request on ``qpn``
        (``None``: on no QP context, as MPI's runtime posts them); runs
        ``func()`` once the NIC has finished processing (the point at
        which the message starts serializing onto the wire)."""
        penalty = (0 if qpn is None or self.disable_qp_cache
                   or self.qp_cache.touch(qpn)
                   else self.config.qp_cache_miss_ns)
        wr_ns = self.config.nic_wr_ns
        telemetry = self.telemetry
        if telemetry.pipes_observed:
            telemetry.pipe("proc", self.node_id, self.processor, wr_ns,
                           penalty, extra_ns)
        self.processor.submit_occupy(wr_ns + penalty + extra_ns, func)
