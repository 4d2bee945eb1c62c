"""Registered transmission buffers.

Endpoints own and register the memory used for RDMA operations (§4.2).
A :class:`BufferPool` registers one contiguous memory region and carves it
into fixed-size :class:`Buffer` slots — exactly how the C++ implementation
lays out its transmission buffers, and what makes the registered-memory
accounting of Fig 9(b) meaningful.  The region is real from the start;
a slot's :class:`Buffer` object exists only once the slot is used.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.verbs.device import VerbsContext
from repro.verbs.memory import MemoryRegion

__all__ = ["Buffer", "BufferPool"]


class Buffer:
    """One RDMA-registered transmission buffer.

    ``payload`` is the opaque stand-in for the buffer's bytes (a tuple
    batch, a byte count descriptor...).  Filling the buffer also publishes
    the payload at the buffer's address in the owning memory region, so a
    remote RDMA Read of this address observes it — mirroring how real
    one-sided reads see whatever currently sits in registered memory.
    """

    __slots__ = ("mr", "addr", "capacity", "payload", "length")

    def __init__(self, mr: MemoryRegion, addr: int, capacity: int):
        self.mr = mr
        self.addr = addr
        self.capacity = capacity
        self.payload: Any = None
        self.length = 0

    def fill(self, payload: Any, length: int) -> None:
        """Place ``length`` bytes of payload into the buffer."""
        if length > self.capacity:
            raise ValueError(
                f"payload of {length} B exceeds buffer capacity "
                f"{self.capacity}"
            )
        if length < 0:
            raise ValueError(f"negative payload length: {length}")
        san = self.mr.telemetry.sanitizer
        if san is not None:
            san.on_buffer_write(self, "fill")
        self.payload = payload
        self.length = length
        self.mr.set_object(self.addr, payload)

    def deposit(self, payload: Any, length: int) -> None:
        """NIC-side unwrap of an *arriving* message into this buffer.

        Unlike :meth:`fill` this is the completion of an operation the
        application already posted the buffer for, so it is exempt from
        the buffer-reuse sanitizer check and does not republish the
        payload at the buffer's address (the remote side owns the data).
        """
        self.payload = payload
        self.length = length

    def reset(self, check: bool = True) -> None:
        """Clear the buffer for reuse.  ``check=False`` leaves the
        sanitizer's buffer-reuse check to a repost, which makes it as
        it tracks the Receive (``QueuePair.post_recv_buffer``)."""
        mr = self.mr
        if check:
            san = mr.telemetry.sanitizer
            if san is not None:
                san.on_buffer_write(self, "reset")
        self.payload = None
        self.length = 0
        mr.clear_object(self.addr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Buffer @{self.addr:#x} {self.length}/{self.capacity}B>"


class BufferPool:
    """A set of equal-size buffers carved from one registered region.

    The region is registered whole, up front (that is what Fig 9(b)
    counts); a slot's :class:`Buffer` is built the first time
    :meth:`buffer` or :meth:`at` asks for it and cached, so its identity
    is stable and a slot nobody touches costs no Python object.  The
    cache grows to the highest slot used, not to the pool's size.
    """

    __slots__ = ("mr", "size", "count", "_slots")

    def __init__(self, ctx: VerbsContext, count: int, size: int,
                 tenant: Optional[str] = None):
        if count < 1:
            raise ValueError(f"buffer count must be >= 1, got {count}")
        if size < 1:
            raise ValueError(f"buffer size must be >= 1, got {size}")
        self.size = size
        self.count = count
        self.mr = ctx.reg_mr(count * size, tenant=tenant)
        #: each slot's Buffer once used, ``None`` until then; slots past
        #: the highest one used have no entry.
        self._slots: List[Optional[Buffer]] = []

    def __len__(self) -> int:
        return self.count

    @property
    def addrs(self) -> range:
        """Every slot's start address, in slot order (no Buffer built)."""
        base = self.mr.addr
        return range(base, base + self.count * self.size, self.size)

    def buffer(self, index: int) -> Buffer:
        """Slot ``index``'s buffer, built on first use.

        A slot already built is returned first, before any check: a
        non-negative index below the cache's length is inside the pool.
        The next slot past the cache (a run takes the slots in order)
        is built by appending it.
        """
        slots = self._slots
        cached = len(slots)
        if index < cached:
            if index >= 0:
                buf = slots[index]
                if buf is not None:
                    return buf
        if not 0 <= index < self.count:
            raise IndexError(f"slot {index} outside a pool of {self.count}")
        mr = self.mr
        size = self.size
        buf = Buffer(mr, mr.addr + index * size, size)
        if index < cached:
            slots[index] = buf
        else:
            if index > cached:
                slots.extend([None] * (index - cached))
            slots.append(buf)
        return buf

    @property
    def buffers(self) -> List[Buffer]:
        """Every slot's buffer, building the untouched ones: for callers
        that take a whole pool at once (the MPI and IPoIB spare lists,
        the ladder's verbs rungs).  Posting and the free lists take
        slots one by one through :meth:`buffer`."""
        return [self.buffer(i) for i in range(self.count)]

    def at(self, addr: int) -> Buffer:
        """Resolve a buffer by its registered address."""
        index, within = divmod(addr - self.mr.addr, self.size)
        if within or not 0 <= index < self.count:
            raise ValueError(
                f"address {addr:#x} is not a buffer start in this pool"
            )
        slots = self._slots
        if index < len(slots):
            buf = slots[index]
            if buf is not None:
                return buf
        return self.buffer(index)
