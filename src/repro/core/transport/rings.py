"""Buffer and circular-queue bookkeeping.

Pieces every endpoint design used to reimplement privately (the
GETFREE/RELEASE free list and the pin+register charge of a pool live
on the endpoint: ``SendEndpoint.provision_send_pool`` / ``recycle``):

* :class:`PendingTable` — refcounts for buffers in flight to several
  destinations of a transmission group (a buffer becomes reusable only
  once every member has consumed it, §5.1.3);
* :class:`RingCursor` — the producer cursor of one FreeArr/ValidArr
  circular message queue (§4.4.3, Algorithm 3).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.verbs.constants import OP_WRITE
from repro.verbs.wr import SendWR

__all__ = [
    "PendingTable",
    "RingCursor",
    "post_ring_write",
]


class PendingTable:
    """Refcounts for buffers awaiting per-destination completions."""

    __slots__ = ("_counts",)

    def __init__(self):
        self._counts: Dict[Any, int] = {}

    def add(self, key: Any, count: int) -> None:
        self._counts[key] = count

    def complete(self, key: Any) -> bool:
        """Record one completion; True once the last one arrived."""
        self._counts[key] -= 1
        if self._counts[key] == 0:
            del self._counts[key]
            return True
        return False

    def items(self):
        return self._counts.items()

    def __contains__(self, key: Any) -> bool:
        return key in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def __bool__(self) -> bool:
        return bool(self._counts)


class RingCursor:
    """Producer cursor over one remote circular queue of 8-byte slots."""

    __slots__ = ("base", "cap", "produced")

    def __init__(self, base: int = 0, cap: int = 0):
        self.base = base
        self.cap = cap
        self.produced = 0

    def next_slot(self) -> int:
        slot = self.base + (self.produced % self.cap) * 8
        self.produced += 1
        return slot


def post_ring_write(qp, cursor: RingCursor, value: int, wr_id: Any) -> None:
    """Produce ``value`` into the remote circular queue behind ``cursor``
    by an inlined, unsignaled RDMA Write (the FreeArr/ValidArr and
    credit-word update primitive)."""
    san = qp.ctx.telemetry.sanitizer
    if san is not None:
        san.on_ring_produce(qp, cursor)
    qp.post_send(SendWR(wr_id, OP_WRITE, None, 0, cursor.next_slot(), None,
                        value, False, True))
