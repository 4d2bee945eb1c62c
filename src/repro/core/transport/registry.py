"""The endpoint-backend registry.

Every endpoint implementation (a *kind*: ``"SR_UD"``, ``"SR_RC"``,
``"RD_RC"``, ``"WR_RC"``, ``"SR_UD_MC"``, the simulated baselines, or a
user-supplied transport) registers a send/receive class pair here, plus
the two transport properties the design matrix of Table 1 derives from:
whether the kind rides on Unreliable Datagram and whether its data path
is one-sided.

Kinds normally register themselves at import time (each implementation
module ends with a :func:`register_endpoint_kind` call), so adding a new
backend requires no edits to :mod:`repro.core.designs` — define the two
classes, register the kind, and build a ``Design`` that names it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "EndpointBackend",
    "UnknownEndpointKindError",
    "backend",
    "register_endpoint_kind",
    "registered_kinds",
]


class UnknownEndpointKindError(KeyError):
    """Raised when a design names an endpoint kind nobody registered."""

    def __init__(self, kind: str, known: Tuple[str, ...]):
        super().__init__(kind)
        self.kind = kind
        self.known = tuple(known)

    def __str__(self) -> str:
        known = ", ".join(self.known) if self.known else "(none)"
        return (f"unknown endpoint kind {self.kind!r}; "
                f"registered kinds: {known}")


@dataclass(frozen=True)
class EndpointBackend:
    """One registered endpoint implementation."""

    kind: str
    send_cls: type
    recv_cls: type
    #: rides on Unreliable Datagram: MTU-capped messages, software error
    #: control (drives the message-size cap and Table 1 columns).
    uses_ud: bool = False
    #: one-sided data path (RDMA Read/Write): flow control in hardware.
    one_sided: bool = False
    description: str = ""


_BACKENDS: Dict[str, EndpointBackend] = {}


def register_endpoint_kind(kind: str, send_cls: type, recv_cls: type, *,
                           uses_ud: bool = False, one_sided: bool = False,
                           description: str = "") -> EndpointBackend:
    """Register an endpoint implementation under ``kind``.

    Re-registering the same class pair is a no-op (modules register at
    import time and may be imported through several paths); registering a
    *different* pair under an existing kind is an error.
    """
    existing = _BACKENDS.get(kind)
    if existing is not None:
        if (existing.send_cls, existing.recv_cls) != (send_cls, recv_cls):
            raise ValueError(
                f"endpoint kind {kind!r} is already registered with "
                f"different classes ({existing.send_cls.__name__}/"
                f"{existing.recv_cls.__name__})"
            )
        return existing
    entry = EndpointBackend(kind, send_cls, recv_cls, uses_ud=uses_ud,
                            one_sided=one_sided, description=description)
    _BACKENDS[kind] = entry
    return entry


def backend(kind: str) -> EndpointBackend:
    """Resolve a registered endpoint kind."""
    try:
        return _BACKENDS[kind]
    except KeyError:
        raise UnknownEndpointKindError(kind, tuple(_BACKENDS)) from None


def registered_kinds() -> Tuple[str, ...]:
    """All registered endpoint kinds, in registration order."""
    return tuple(_BACKENDS)
