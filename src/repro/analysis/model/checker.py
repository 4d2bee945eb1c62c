"""Property evaluation over an explored protocol graph.

Four properties per endpoint kind (ISSUE/DESIGN "Protocol model
checking"):

* **deadlock-freedom** — no reachable non-terminal state without an
  enabled transition.
* **credit-conservation** — the flow-control ledger balances in every
  reachable state: ``sent <= credit <= posted``, in-flight grants are
  backed by posted Receives, in-flight messages fit the receiver's
  availability, and no buffer leaks from the sender pool or the
  receiver window.
* **ring-consistency** — never more in-flight FreeArr/ValidArr values
  than the ring has slots (one-sided designs; not applicable to the
  credited family).
* **eventual-delivery** — every reachable state can still reach a
  terminal outcome ("done", or "degraded" when a failure was cleanly
  detected); a state that cannot is a silent wedge.

Every verdict and every counterexample below is drawn from the full
state graph, and a counterexample is minimal — BFS parent pointers give
shortest paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.model.core import Action, ModelBound, ProtocolModel
from repro.analysis.model.explorer import ExploreResult, explore
from repro.analysis.model.protocols import extract_model

__all__ = [
    "CheckResult",
    "PROPERTIES",
    "PropertyStatus",
    "Witness",
    "check_kind",
    "check_model",
]

PROPERTIES = ("deadlock-freedom", "credit-conservation",
              "ring-consistency", "eventual-delivery")


@dataclass
class Witness:
    """A minimal counterexample: the shortest action path from the
    initial state to a state exhibiting the violation."""

    property: str
    message: str
    state_id: int
    #: [(None, initial), (action, state), ...] ending at the violation.
    steps: List[Tuple[Optional[Action], Any]] = field(repr=False)

    def __len__(self) -> int:
        return len(self.steps) - 1  # actions, not states


@dataclass
class PropertyStatus:
    name: str
    #: "pass" | "fail" | "n/a" | "unknown" (search truncated).
    status: str
    detail: str
    witness: Optional[Witness] = None

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "n/a")


@dataclass
class CheckResult:
    """Verdict for one endpoint kind at one bound."""

    kind: str
    model: ProtocolModel
    explored: ExploreResult
    properties: List[PropertyStatus]

    @property
    def bound(self) -> ModelBound:
        return self.model.bound

    @property
    def passed(self) -> bool:
        return all(p.ok for p in self.properties)

    @property
    def witnesses(self) -> List[Witness]:
        return [p.witness for p in self.properties if p.witness is not None]

    def status_of(self, name: str) -> PropertyStatus:
        for p in self.properties:
            if p.name == name:
                return p
        raise KeyError(name)

    def to_dict(self) -> Dict[str, Any]:
        ex = self.explored
        return {
            "kind": self.kind,
            "family": self.model.family,
            "bound": self.bound.describe(),
            "states": ex.states,
            "transitions": ex.transitions,
            "complete": ex.complete,
            "terminals": dict(ex.terminals),
            "elapsed_s": round(ex.elapsed, 3),
            "passed": self.passed,
            "properties": [
                {"name": p.name, "status": p.status, "detail": p.detail,
                 **({"counterexample_steps": len(p.witness)}
                    if p.witness else {})}
                for p in self.properties
            ],
        }


def _witness(res: ExploreResult, prop: str, state_id: int,
             message: str) -> Witness:
    return Witness(property=prop, message=message, state_id=state_id,
                   steps=res.path_to(state_id))


def check_model(model: ProtocolModel) -> CheckResult:
    """Explore ``model`` and evaluate the four properties."""
    res = explore(model)
    props: List[PropertyStatus] = []
    size = (f"{res.states} states, {res.transitions} transitions"
            + ("" if res.complete else " (truncated)"))

    # deadlock-freedom
    if res.deadlocks:
        sid = res.deadlocks[0]
        msg = ("non-terminal state with no enabled transition "
               f"({len(res.deadlocks)} such state"
               f"{'s' if len(res.deadlocks) > 1 else ''})")
        props.append(PropertyStatus(
            "deadlock-freedom", "fail", f"{msg}; {size}",
            _witness(res, "deadlock-freedom", sid, msg)))
    elif not res.complete:
        props.append(PropertyStatus(
            "deadlock-freedom", "unknown",
            f"no deadlock within the explored prefix; {size}"))
    else:
        props.append(PropertyStatus(
            "deadlock-freedom", "pass", size))

    # credit-conservation / ring-consistency (state invariants)
    for name in ("credit-conservation", "ring-consistency"):
        if name == "ring-consistency" and model.family != "ring":
            props.append(PropertyStatus(
                name, "n/a", "no circular message queues in this design"))
            continue
        hit = res.violations.get(name)
        if hit is not None:
            sid, msg = hit
            props.append(PropertyStatus(
                name, "fail", f"{msg}; {size}",
                _witness(res, name, sid, msg)))
        elif not res.complete:
            props.append(PropertyStatus(
                name, "unknown",
                f"holds on the explored prefix; {size}"))
        else:
            props.append(PropertyStatus(
                name, "pass", f"holds in every reachable state; {size}"))

    # eventual-delivery
    offenders = res.no_terminal_path
    if offenders:
        sid = offenders[0]
        msg = (f"{len(offenders)} reachable state"
               f"{'s' if len(offenders) > 1 else ''} cannot reach any "
               f"terminal outcome (silent wedge)")
        props.append(PropertyStatus(
            "eventual-delivery", "fail", f"{msg}; {size}",
            _witness(res, "eventual-delivery", sid, msg)))
    elif offenders is None:
        props.append(PropertyStatus(
            "eventual-delivery", "unknown",
            f"search truncated before the claim could be evaluated; "
            f"{size}"))
    else:
        outcome = ", ".join(f"{v} {k}" for k, v in
                            sorted(res.terminals.items())) or "none"
        props.append(PropertyStatus(
            "eventual-delivery", "pass",
            f"every explored state reaches a terminal "
            f"(outcomes: {outcome}); {size}"))

    return CheckResult(kind=model.name, model=model, explored=res,
                       properties=props)


def check_kind(kind: str, bound: Optional[ModelBound] = None) -> CheckResult:
    """Extract and check the protocol model of an endpoint kind."""
    return check_model(extract_model(kind, bound))
