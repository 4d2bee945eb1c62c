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


@dataclass(slots=True, init=False)
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
    (DESIGN.md, "Execution path").  It validates in its own ``__init__``.
    """

    wr_id: Any
    opcode: Opcode
    buffer: Any
    length: int
    remote_addr: int
    dest: Optional[AddressHandle]
    value: Optional[int]
    #: request a completion entry for this WR (IBV_SEND_SIGNALED).
    signaled: bool
    #: small payloads may be inlined into the WQE, saving a DMA fetch —
    #: the paper uses this for credit writes (§4.4.1, [16]).
    inline: bool
    #: causal flow id stamped by QueuePair.post_send when link recording
    #: is on (repro.telemetry.links); 0 otherwise.
    flow: int

    def __init__(self, wr_id: Any, opcode: Opcode, buffer: Any = None,
                 length: int = 0, remote_addr: int = 0,
                 dest: Optional[AddressHandle] = None,
                 value: Optional[int] = None, signaled: bool = True,
                 inline: bool = False, flow: int = 0):
        if opcode is OP_RECV:
            raise VerbsError("RECV is not a send-queue opcode; use RecvWR")
        if length < 0:
            raise VerbsError(f"negative WR length: {length}")
        if buffer is None:
            if opcode is OP_WRITE and value is None:
                raise VerbsError("WRITE needs either a value or a buffer")
            if opcode is OP_READ:
                raise VerbsError("READ needs a local destination buffer")
        self.wr_id = wr_id
        self.opcode = opcode
        self.buffer = buffer
        self.length = length
        self.remote_addr = remote_addr
        self.dest = dest
        self.value = value
        self.signaled = signaled
        self.inline = inline
        self.flow = flow


@dataclass(slots=True, init=False)
class RecvWR:
    """A work request for the receive queue.

    ``buffer`` names the registered memory that an incoming Send will be
    deposited into; it may not be touched again until the matching
    completion has been polled (§2.2.3).
    """

    wr_id: Any
    buffer: Any
    length: int

    def __init__(self, wr_id: Any, buffer: Any, length: int):
        if length <= 0:
            raise VerbsError(f"receive buffer length must be positive: {length}")
        self.wr_id = wr_id
        self.buffer = buffer
        self.length = length
