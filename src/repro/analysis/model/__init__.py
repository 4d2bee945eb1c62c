"""Bounded explicit-state model checking of the shuffle protocols.

The transport layer's flow-control machinery — credit words, credit
datagrams, FreeArr/ValidArr circular queues — is small enough to verify
exhaustively at bounded instance sizes.  This package extracts each
endpoint kind's protocol as a finite transition system (one table,
:data:`~repro.analysis.model.protocols.MODELS`, whose models run the
transport's own credit and ring-cap rules) and explores every
interleaving of sender, receivers and fabric faults — the full state
graph, by one breadth-first search — checking deadlock-freedom, credit
conservation, ring consistency and eventual delivery.  Violations come
back as minimal counterexample traces, exported in the telemetry
layer's Chrome-trace format.

Entry points: ``python -m repro.analysis model`` (CLI),
:func:`check_kind` (library).
"""

from repro.analysis.model.checker import (
    PROPERTIES,
    CheckResult,
    PropertyStatus,
    Witness,
    check_kind,
    check_model,
)
from repro.analysis.model.core import (
    Action,
    ModelBound,
    ProtocolModel,
    parse_bound,
)
from repro.analysis.model.explorer import ExploreResult, explore
from repro.analysis.model.protocols import (
    MODELS,
    CreditProtocolModel,
    RingProtocolModel,
    extract_model,
    modeled_kinds,
)
from repro.analysis.model.trace import write_counterexample

__all__ = [
    "Action",
    "CheckResult",
    "CreditProtocolModel",
    "ExploreResult",
    "MODELS",
    "ModelBound",
    "PROPERTIES",
    "PropertyStatus",
    "ProtocolModel",
    "RingProtocolModel",
    "Witness",
    "check_kind",
    "check_model",
    "explore",
    "extract_model",
    "modeled_kinds",
    "parse_bound",
    "write_counterexample",
]
