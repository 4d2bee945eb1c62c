"""Registered memory: address spaces and memory regions.

Real RDMA requires pinning pages and registering them with the adapter
before they can be the source or target of RDMA operations (§2.2).  The
simulation gives each node a flat virtual address space from which memory
regions are allocated; remote Reads and Writes resolve absolute addresses
back to the owning region.

A region stores two kinds of content:

* **words** — 64-bit control values at arbitrary offsets (credits, the
  FreeArr/ValidArr circular-queue slots of the RDMA Read endpoint), and
* **objects** — opaque payload references standing in for bulk tuple data,
  so the simulation never copies megabytes of real bytes around.

Registered-byte accounting feeds the memory-consumption experiment
(Fig 9b).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Optional

from repro.telemetry.core import Telemetry
from repro.verbs.constants import VerbsError

__all__ = ["MemoryRegion", "AddressSpace"]


class MemoryRegion:
    """A registered, pinned region of one node's memory."""

    def __init__(self, node_id: int, addr: int, length: int, lkey: int,
                 telemetry: Telemetry):
        if length <= 0:
            raise VerbsError(f"memory region length must be positive: {length}")
        self.node_id = node_id
        self.addr = addr
        self.length = length
        self.lkey = lkey
        self._words: Dict[int, int] = {}
        self._objects: Dict[int, Any] = {}
        self.deregistered = False
        #: callbacks invoked as ``fn(addr, value)`` after a word write.
        #: Used by pollers of one-sided message queues (FreeArr/ValidArr,
        #: credit words) to avoid busy-spinning in simulated time; a real
        #: implementation polls the cache line instead.
        self.on_write: list = []
        #: observer bundle (buffers carved here read it per write).
        self.telemetry = telemetry
        #: owning tenant (service-layer accounting); None outside the
        #: multi-tenant service.
        self.tenant: Optional[str] = None

    def _check(self, addr: int, nbytes: int = 1) -> None:
        if self.deregistered:
            san = self.telemetry.sanitizer
            if san is not None:
                san.on_mr_error(self, "deregistered", addr)
            raise VerbsError(f"access to deregistered MR lkey={self.lkey}")
        if not (self.addr <= addr and addr + nbytes <= self.addr + self.length):
            san = self.telemetry.sanitizer
            if san is not None:
                san.on_mr_error(self, "out-of-bounds", addr)
            raise VerbsError(
                f"address {addr:#x}+{nbytes} outside MR "
                f"[{self.addr:#x}, {self.addr + self.length:#x})"
            )

    def contains(self, addr: int) -> bool:
        return self.addr <= addr < self.addr + self.length

    # -- 64-bit control words ---------------------------------------------

    def read_u64(self, addr: int) -> int:
        self._check(addr, 8)
        return self._words.get(addr, 0)

    def write_u64(self, addr: int, value: int) -> None:
        self._check(addr, 8)
        self._words[addr] = int(value)
        for callback in self.on_write:
            callback(addr, value)

    # -- bulk payload objects ----------------------------------------------

    def set_object(self, addr: int, obj: Any) -> None:
        self._check(addr)
        self._objects[addr] = obj

    def get_object(self, addr: int) -> Any:
        self._check(addr)
        return self._objects.get(addr)

    def clear_object(self, addr: int) -> None:
        """Forget the object at ``addr``: :meth:`get_object` answers
        ``None`` again, and the table holds no entry for it."""
        self._check(addr)
        objects = self._objects
        if addr in objects:
            del objects[addr]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MR node={self.node_id} [{self.addr:#x},"
            f"+{self.length}) lkey={self.lkey}>"
        )


class AddressSpace:
    """One node's virtual address space and MR registry."""

    #: regions start away from zero so a zero address is always invalid.
    _BASE = 0x10000

    def __init__(self, node_id: int, telemetry: Telemetry):
        self.node_id = node_id
        self._next_addr = self._BASE
        self._next_key = 1
        #: the live regions and, beside them, their base addresses —
        #: both in address order (bases only grow), so resolve() and
        #: deregister() are a bisect.
        self._regions: List[MemoryRegion] = []
        self._bases: List[int] = []
        self.registered_bytes = 0
        self.peak_registered_bytes = 0
        #: observer bundle of every region registered here.
        self.telemetry = telemetry

    def register(self, length: int) -> MemoryRegion:
        """Allocate and register a fresh region of ``length`` bytes."""
        mr = MemoryRegion(self.node_id, self._next_addr, length,
                          self._next_key, self.telemetry)
        # Leave a guard gap so off-by-one addressing bugs fault loudly.
        self._next_addr += length + 4096
        self._next_key += 1
        self._regions.append(mr)
        self._bases.append(mr.addr)
        self.registered_bytes += length
        self.peak_registered_bytes = max(
            self.peak_registered_bytes, self.registered_bytes
        )
        return mr

    def deregister(self, mr: MemoryRegion) -> None:
        i = bisect_left(self._bases, mr.addr)
        if i == len(self._bases) or self._regions[i] is not mr:
            san = self.telemetry.sanitizer
            if san is not None:
                san.on_mr_error(mr, "double-deregister", mr.addr)
            raise VerbsError(f"MR lkey={mr.lkey} is not registered on this node")
        del self._regions[i]
        del self._bases[i]
        mr.deregistered = True
        # Every access now faults, so the write hooks are dead; they
        # point at the endpoint that still lists this region.
        mr.on_write.clear()
        self.registered_bytes -= mr.length

    def dispose(self) -> None:
        """Forget every region and unhook its write callbacks.

        A write hook is a board or closure that reaches its endpoint,
        whose QPs reach the context that owns this address space; with
        the hooks and the table gone nothing here closes that loop (see
        :meth:`VerbsContext.dispose`).
        """
        for mr in self._regions:
            mr.on_write.clear()
        self._regions.clear()
        self._bases.clear()

    def resolve(self, addr: int) -> MemoryRegion:
        """Find the registered region containing ``addr``.

        Remote access to unregistered memory is a remote-access error on
        real hardware; here it raises :class:`VerbsError`.
        """
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            mr = self._regions[i]
            if addr < mr.addr + mr.length:  # bisect gave mr.addr <= addr
                return mr
        raise VerbsError(
            f"address {addr:#x} not in any registered region of node "
            f"{self.node_id}"
        )
