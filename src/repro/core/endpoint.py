"""The communication-endpoint vocabulary (§4.2).

An endpoint hides transport-level intricacies (Queue Pair wiring, memory
registration, flow control, error handling) behind a small interface:

Send side:

* ``SEND(buf, dest, state)`` — schedule ``buf`` for transmission to every
  node in ``dest``; the buffer cannot be touched after the call.
* ``GETFREE()`` — obtain a registered buffer for a later SEND; blocks while
  all transmission buffers are in use.

Receive side:

* ``GETDATA()`` — returns ``(state, src, remote, local)``: a received
  buffer ``local``, the sending endpoint's id ``src``, and the buffer's
  address ``remote`` in the sender (used by one-sided implementations).
* ``RELEASE(remote, local, src)`` — return ``local`` for reuse and, for
  one-sided transports, notify the sender that ``remote`` is consumable.

Every endpoint participating in a query is identified by a unique integer
(used like a TCP address/port pair).  All methods are thread-safe: shared
(single-endpoint) configurations serialize their bookkeeping through a
mutex, which is exactly the contention the SE designs trade resources for.

This module is the vocabulary every endpoint, operator and policy
speaks — transmission state, configuration, framing, the network error
— and imports nothing from :mod:`repro.core.transport`.  The endpoints
themselves (the one ``SendEndpoint`` / ``ReceiveEndpoint`` base every
design and baseline descends from, and the credited two-sided pair)
live in :mod:`repro.core.transport.runtime`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from repro.checks import check_count

__all__ = [
    "DataState",
    "ShuffleNetworkError",
    "EndpointConfig",
    "Frame",
    "FrameCarrier",
    "DEPLETED_SENTINEL",
]


class DataState(enum.IntEnum):
    """The binary transmission state carried with every buffer (§4.2)."""

    MORE_DATA = 0
    DEPLETED = 1


class ShuffleNetworkError(Exception):
    """Raised when unreliable transmission lost data past the drain
    timeout; the database system reacts by restarting the query (§4.4.2)."""


@dataclass(frozen=True)
class EndpointConfig:
    """Tunables shared by all endpoint implementations."""

    #: RDMA message size == transmission buffer size.  Capped at the MTU
    #: for Unreliable Datagram endpoints (§2.2.2).
    message_size: int = 64 * 1024
    #: transmission buffers per connection per thread ("double buffering"
    #: by default, §5.1.2; the flow-control experiment of §5.1.1 uses 16).
    buffers_per_connection: int = 2
    #: credit write-back frequency: the receiver returns credit after this
    #: many Receive requests have been reposted (§4.4.1, Fig 8).
    credit_frequency: int = 2
    #: UD buffers-per-connection multiplier.  "Double buffering" refers to
    #: the 64 KiB RC buffers (§5.1.2); UD messages are MTU-sized, so the
    #: same *byte* window needs more buffers (the §5.1.1 experiments use
    #: 16 per remote node).  The stage multiplies buffers_per_connection
    #: by this factor for UD endpoints; pinned memory stays far below the
    #: RC designs' (Fig 9b).
    ud_window_factor: int = 4
    #: owning tenant of this endpoint's resources (multi-tenant service
    #: accounting and quota enforcement); None outside the service.
    tenant: Optional[str] = None

    def __post_init__(self):
        check_count("message_size", self.message_size, minimum=64)
        check_count("buffers_per_connection", self.buffers_per_connection)
        check_count("credit_frequency", self.credit_frequency)
        check_count("ud_window_factor", self.ud_window_factor)
        if self.credit_frequency > self.buffers_per_connection:
            # Otherwise the final write-back never happens and the sender
            # can starve for credit at end of stream (§5.1.1 discussion).
            raise ValueError(
                "credit_frequency must not exceed buffers per connection "
                f"({self.credit_frequency} > {self.buffers_per_connection})")


@dataclass(slots=True)
class Frame:
    """Endpoint-level framing carried inside every transmission buffer.

    The real implementation encodes this in the first bytes of the
    registered buffer (Algorithm 3 line 2); the simulation carries it as
    the buffer payload.
    """

    #: "data" for application buffers, "final" for end-of-stream markers,
    #: "credit" for UD software credit returns.
    kind: str
    state: DataState = DataState.MORE_DATA
    #: unique id of the sending endpoint.
    src_endpoint: int = -1
    #: per-connection sequence number (datagram accounting, §4.4.2).
    seq: int = 0
    #: on a "final" frame: total messages sent on this connection,
    #: including the final itself (§4.4.2).
    total: Optional[int] = None
    #: the tuple batch (opaque to the endpoint).
    payload: Any = None
    #: valid payload bytes.
    length: int = 0
    #: the buffer's address in the *sender's* registered memory; one-sided
    #: receivers return it through RELEASE.
    remote_addr: int = 0
    #: on a "credit" frame: the absolute credit value.
    credit: int = 0


#: item placed on the receive inbox once every source has been depleted.
DEPLETED_SENTINEL = (DataState.DEPLETED, -1, 0, None)


class FrameCarrier:
    """Adapts a :class:`Frame` to the verbs layer's buffer interface.

    A Send work request transmits ``wr.buffer.payload``; wrapping the frame
    in this one-field object lets one application buffer be in flight to
    several destinations with per-connection framing (distinct sequence
    numbers), the way the real code writes per-connection headers into the
    same registered buffer region.
    """

    __slots__ = ("payload",)

    def __init__(self, frame: Frame):
        self.payload = frame
