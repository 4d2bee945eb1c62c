"""Render model-checker counterexamples as Chrome trace JSON.

A :class:`~repro.analysis.model.checker.Witness` is a shortest action
path; this module replays it through the *telemetry* layer's
:class:`~repro.telemetry.trace.Tracer` — the same exporter the
simulator uses — so a counterexample loads in ``chrome://tracing`` or
https://ui.perfetto.dev exactly like a simulation trace does.

Layout: pseudo-process 0 is the sender, 1..peers are the per-stream
receivers, and one extra process carries fabric events (losses, QP
errors).  Each protocol step is an ``X`` span at a synthetic 1 µs per
step (model time is untimed — only the order matters), annotated with
the full post-state; the final instant marks the violated property.
"""

from __future__ import annotations

import os

from repro.telemetry.trace import TraceBudget, Tracer, write_trace

from repro.analysis.model.checker import Witness
from repro.analysis.model.core import ProtocolModel

__all__ = ["write_counterexample"]

#: synthetic duration of one protocol step, in simulated nanoseconds.
STEP_NS = 1000


class _Clock:
    """Minimal stand-in for the Simulator: the Tracer only reads
    ``now`` when an event omits its timestamp, which we never do."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0


def _replay(model: ProtocolModel, witness: Witness) -> Tracer:
    """A tracer holding one counterexample's steps."""
    peers = model.bound.peers
    fabric_pid = peers + 1
    tracer = Tracer(_Clock(), TraceBudget(),
                    label=f"model/{model.name}")
    tracer.name_process(0, "sender")
    for i in range(peers):
        tracer.name_process(1 + i, f"receiver{i}")
    tracer.name_process(fabric_pid, "fabric")

    first_action, initial = witness.steps[0]
    assert first_action is None
    tracer.instant(0, "protocol", "initial", ts_ns=0, cat="model",
                   args={"state": model.describe_state(initial),
                         "bound": model.bound.describe()})

    for step, (action, state) in enumerate(witness.steps[1:], start=1):
        assert action is not None
        if action.site == "fabric":
            pid = fabric_pid
        elif action.site == "receiver" and action.peer is not None:
            pid = 1 + action.peer
        else:
            pid = 0
        track = ("group" if action.peer is None
                 else f"peer{action.peer}")
        tracer.complete(
            pid, track, action.name,
            start_ns=step * STEP_NS, dur_ns=STEP_NS * 3 // 4,
            cat="fault" if action.fault else "model",
            args={"step": step, "peer": action.peer,
                  "state": model.describe_state(state)})

    end_ns = len(witness.steps) * STEP_NS
    tracer.instant(0, "protocol", f"VIOLATION: {witness.property}",
                   ts_ns=end_ns, cat="violation",
                   args={"message": witness.message,
                         "steps": len(witness)})
    return tracer


def write_counterexample(model: ProtocolModel, witness: Witness,
                         directory: str) -> str:
    """Write one counterexample trace under ``directory`` as
    ``<model>.<property>.trace.json``; returns the file path."""
    os.makedirs(directory, exist_ok=True)
    prop = witness.property.replace("/", "-")
    path = os.path.join(directory, f"{model.name}.{prop}.trace.json")
    tracer = _replay(model, witness)
    with open(path, "w") as fh:
        write_trace(fh, [tracer], tracer.budget.dropped, model=model.name,
                    property=witness.property, message=witness.message,
                    counterexample_steps=len(witness))
    return path
