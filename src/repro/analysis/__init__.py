"""Correctness tooling for the simulated RDMA stack.

Three prongs (see DESIGN.md "Analysis & sanitizer" and "Protocol model
checking"):

* :mod:`repro.analysis.linter` — AST-based protocol lint over
  ``src/repro`` (``python -m repro.analysis``);
* :mod:`repro.analysis.sanitizer` — the runtime race detector enabled by
  ``Cluster.enable_sanitizer()`` / ``repro-bench --sanitize``;
* :mod:`repro.analysis.model` — the bounded protocol model checker
  (``python -m repro.analysis model``),
  verifying each endpoint kind's flow-control protocol exhaustively at
  small instance sizes.
"""

from repro.analysis.sanitizer import (
    RUNTIME_RULES,
    ProtocolViolationError,
    Sanitizer,
    Violation,
)

__all__ = [
    "LintViolation",
    "ProtocolViolationError",
    "RUNTIME_RULES",
    "STATIC_RULES",
    "Sanitizer",
    "Violation",
    "lint_paths",
    "lint_source",
    "package_root",
    "parse_select",
]

#: the static lint's names, imported from :mod:`repro.analysis.linter`
#: on first use: the runtime sanitizer needs none of them.
_LINTER_NAMES = ("LintViolation", "STATIC_RULES", "lint_paths",
                 "lint_source", "package_root", "parse_select")


def __getattr__(name: str):
    if name in _LINTER_NAMES:
        from repro.analysis import linter
        return getattr(linter, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
