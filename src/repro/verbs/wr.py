"""Work requests posted to Queue Pairs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.verbs.constants import (
    OP_READ,
    OP_RECV,
    OP_WRITE,
    AddressHandle,
    Opcode,
    VerbsError,
)

__all__ = ["SendWR", "RecvWR"]


@dataclass(slots=True)
class SendWR:
    """A work request for the send queue (Send, RDMA Read, RDMA Write).

    Field usage per opcode:

    * ``SEND`` — ``buffer`` holds the data to transmit; ``dest`` names the
      remote QP for UD (RC uses the connected peer).
    * ``READ`` — ``buffer`` is the *local destination*; ``remote_addr`` is
      the registered remote address to read ``length`` bytes from.
    * ``WRITE`` — ``remote_addr`` is the registered remote address to
      write to.  A small control write carries ``value`` (one 64-bit
      word); a bulk write carries ``buffer``.

    The endpoints' per-message requests (data, credit and ring writes)
    are built positionally, in field order: keywords cost more
    (DESIGN.md, "Execution path").
    """

    wr_id: Any
    opcode: Opcode
    buffer: Any = None
    length: int = 0
    remote_addr: int = 0
    dest: Optional[AddressHandle] = None
    value: Optional[int] = None
    #: request a completion entry for this WR (IBV_SEND_SIGNALED).
    signaled: bool = True
    #: small payloads may be inlined into the WQE, saving a DMA fetch —
    #: the paper uses this for credit writes (§4.4.1, [16]).
    inline: bool = False
    #: causal flow id stamped by QueuePair.post_send when link recording
    #: is on (repro.telemetry.links); 0 otherwise.
    flow: int = 0

    def __post_init__(self):
        opcode = self.opcode
        if opcode is OP_RECV:
            raise VerbsError("RECV is not a send-queue opcode; use RecvWR")
        if self.length < 0:
            raise VerbsError(f"negative WR length: {self.length}")
        if self.buffer is None:
            if opcode is OP_WRITE and self.value is None:
                raise VerbsError("WRITE needs either a value or a buffer")
            if opcode is OP_READ:
                raise VerbsError("READ needs a local destination buffer")


@dataclass(slots=True)
class RecvWR:
    """A work request for the receive queue.

    ``buffer`` names the registered memory that an incoming Send will be
    deposited into; it may not be touched again until the matching
    completion has been polled (§2.2.3).
    """

    wr_id: Any
    buffer: Any
    length: int

    def __post_init__(self):
        if self.length <= 0:
            raise VerbsError(f"receive buffer length must be positive: {self.length}")
