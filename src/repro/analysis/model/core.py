"""Model-checker core types: bounds, actions, the ProtocolModel base.

A :class:`ProtocolModel` is a finite transition system over hashable
states (nested tuples).  The explorer only needs four operations —
``initial``, ``successors``, ``terminal`` and ``check`` — plus
``describe_state`` for rendering counterexamples.  Concrete models for
the paper's flow-control protocols live in
:mod:`repro.analysis.model.protocols`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.checks import count, validate
from repro.core.endpoint import EndpointConfig

__all__ = [
    "Action",
    "ModelBound",
    "ProtocolModel",
    "parse_bound",
]


@dataclass(frozen=True)
class ModelBound:
    """Exploration bounds: the finite instance of the protocol checked.

    The defaults are the smallest instance that still exercises every
    protocol mechanism (two peers interleaving, a window smaller than
    the message count so credit must turn over, one message loss and one
    credit loss where the transport is lossy).  Fault budgets count
    *fault transitions available*, not mandatory faults — the fault-free
    executions are always a subset of the explored space.

    ``qp_errors`` defaults to 0: none of the five paper designs
    implements QP-error recovery yet (ROADMAP direction 1(d)), so a QP
    error provably wedges the stage — raise the budget to make the
    checker produce that trace.
    """

    #: receive-side peers the sender fans out to.
    peers: int = count(1, default=2)
    #: data messages per peer-stream (plus one final marker each).
    messages: int = count(0, default=2)
    #: receiver window: Receives initially posted = initial credit (the
    #: endpoints' ``buffers_per_connection`` at one thread per endpoint).
    window: int = count(1, default=2)
    #: Receives per credit write-back (§5.1.1).
    credit_frequency: int = count(1, default=2)
    #: sender transmission-pool buffers shared across peers (§4.2).
    sender_buffers: int = count(1, default=2)
    #: lossy transports only: data datagrams that may be dropped.
    data_loss: int = count(0, default=1)
    #: lossy transports only: credit datagrams that may be dropped.
    credit_loss: int = count(0, default=1)
    #: lossy transports only: final markers that may be dropped (default
    #: 0 keeps the default instance small; the sender re-sends one).
    final_loss: int = count(0, default=0)
    #: QP-error faults (RC: one connection; UD: the one shared QP).
    qp_errors: int = count(0, default=0)
    #: explorer cap on distinct states before giving up (incomplete).
    max_states: int = count(1, default=500_000)

    def __post_init__(self) -> None:
        validate(self)
        # The runtime's window rule: no bound the endpoints refuse.
        EndpointConfig(buffers_per_connection=self.window,
                       credit_frequency=self.credit_frequency)

    def describe(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def parse_bound(spec: str) -> ModelBound:
    """Parse ``"key=value,key=value"`` overrides onto the default bound."""
    bound = ModelBound()
    if not spec:
        return bound
    known = {f.name for f in fields(ModelBound)}
    overrides: Dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in known:
            raise ValueError(
                f"unknown bound {key!r}; known: {', '.join(sorted(known))}")
        try:
            overrides[key] = int(value)
        except ValueError:
            raise ValueError(f"bound {key!r} needs an integer, got "
                             f"{value.strip()!r}") from None
    return replace(bound, **overrides)


class Action(NamedTuple):
    """One labelled transition.

    ``peer`` is the peer-stream index the action belongs to (``None``
    for group actions touching every stream).  ``site`` ("sender" /
    "receiver" / "fabric") picks the trace process a counterexample
    step renders under; ``fault`` marks injected faults.
    """

    name: str
    peer: Optional[int]
    site: str
    fault: bool


class ProtocolModel:
    """Base for finite protocol transition systems.

    States are nested tuples (hashable, comparable); subclasses define
    the layout.  ``check`` returns the invariant violations *holding in*
    a state as ``(property, message)`` pairs — the explorer evaluates it
    on every reachable state.  ``terminal`` classifies quiescent states
    ("done", or "degraded" when a failure was cleanly detected); the
    explorer treats them as absorbing.
    """

    #: model name (usually the endpoint kind).
    name: str = "?"
    #: protocol family: "credit" or "ring".
    family: str = "?"
    bound: ModelBound

    def initial(self) -> Any:
        raise NotImplementedError

    def successors(self, state: Any) -> List[Tuple[Action, Any]]:
        raise NotImplementedError

    def terminal(self, state: Any) -> Optional[str]:
        raise NotImplementedError

    def check(self, state: Any) -> Tuple[Tuple[str, str], ...]:
        raise NotImplementedError

    def describe_state(self, state: Any) -> Dict[str, Any]:
        raise NotImplementedError
