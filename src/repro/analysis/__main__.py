"""CLI driver: ``python -m repro.analysis [model] ...``.

Two entry points share the module:

* ``python -m repro.analysis [paths...]`` — static VS1xx protocol lint
  over ``src/repro`` (or the given files/directories); exits non-zero
  if anything is found.
* ``python -m repro.analysis model [--kind K] [--bound k=v,...]`` —
  the bounded protocol model checker: verifies every (or each ``--kind``)
  modeled endpoint kind's flow-control protocol for deadlock-
  freedom, credit conservation, ring consistency and eventual delivery,
  and renders counterexamples as Chrome trace JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.linter import (
    STATIC_RULES,
    LintViolation,
    lint_paths,
    package_root,
    parse_select,
)
from repro.analysis.sanitizer import RUNTIME_RULES

__all__ = ["main", "model_main"]


def model_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.analysis model`` — check protocol models."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis model",
        description="Bounded explicit-state model checking of the "
                    "shuffle flow-control protocols (deadlock-freedom, "
                    "credit conservation, ring consistency, eventual "
                    "delivery).",
    )
    parser.add_argument("--kind", action="append", dest="kinds",
                        metavar="KIND",
                        help="endpoint kind to check (repeatable; "
                             "default: every modeled kind)")
    parser.add_argument("--bound", metavar="SPEC", default="",
                        help="exploration bound overrides, e.g. "
                             "'messages=4,window=2,qp_errors=1'")
    parser.add_argument("--trace-dir", metavar="DIR",
                        help="write counterexample traces (Chrome trace "
                             "JSON, Perfetto-loadable) into DIR")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable verdicts on stdout")
    parser.add_argument("--list-kinds", action="store_true",
                        help="print the modeled endpoint kinds and exit")
    args = parser.parse_args(argv)

    from repro.analysis.model import (
        check_kind,
        extract_model,
        modeled_kinds,
        parse_bound,
    )
    from repro.analysis.model.trace import write_counterexample

    known = list(modeled_kinds())
    if args.list_kinds:
        for kind in known:
            model = extract_model(kind)
            print(f"{kind}  ({model.family} family)")
        return 0

    kinds = args.kinds if args.kinds else known
    unknown = [k for k in kinds if k not in known]
    if unknown:
        parser.error(f"no protocol model for: {', '.join(unknown)} "
                     f"(modeled: {', '.join(known)})")
    try:
        bound = parse_bound(args.bound)
    except ValueError as exc:
        parser.error(str(exc))

    results = []
    failed = False
    for kind in kinds:
        result = check_kind(kind, bound)
        results.append(result)
        failed = failed or not result.passed
        if args.trace_dir:
            for witness in result.witnesses:
                path = write_counterexample(result.model, witness,
                                            args.trace_dir)
                if not args.json:
                    print(f"  counterexample: {path}", file=sys.stderr)
        if not args.json:
            ex = result.explored
            verdict = "pass" if result.passed else "FAIL"
            print(f"{kind:10s} [{verdict}]  {ex.states} states, "
                  f"{ex.transitions} transitions, "
                  f"{ex.elapsed:.2f}s"
                  + ("" if ex.complete else "  (TRUNCATED)"))
            for prop in result.properties:
                print(f"  {prop.name:20s} {prop.status:7s} {prop.detail}")

    if args.json:
        print(json.dumps([r.to_dict() for r in results], indent=2))
    elif failed:
        bad = [r.kind for r in results if not r.passed]
        print(f"repro.analysis model: FAILED for {', '.join(bad)}",
              file=sys.stderr)
    else:
        print(f"repro.analysis model: {len(results)} kind(s) verified "
              f"at bound {bound.describe()}", file=sys.stderr)
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "model":
        return model_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Protocol lint for the simulated RDMA stack "
                    "(static VS1xx rules; the runtime rules run under "
                    "repro-bench --sanitize; 'model' subcommand runs "
                    "the protocol model checker).",
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: the installed repro package)")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule ids to run "
                             "(e.g. VS101,VS104)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="violation output format (default: text)")
    args = parser.parse_args(argv)

    if args.list_rules:
        print("static rules (python -m repro.analysis):")
        for rule_id, description in STATIC_RULES.items():
            print(f"  {rule_id}  {description}")
        print("runtime rules (repro-bench --sanitize):")
        for rule_id, description in RUNTIME_RULES.items():
            print(f"  {rule_id}  {description}")
        return 0

    try:
        select = parse_select(args.select)
    except ValueError as exc:
        parser.error(str(exc))
    paths = [Path(p) for p in args.paths] if args.paths else [package_root()]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        parser.error(f"no such path: {', '.join(missing)}")
    violations: List[LintViolation] = lint_paths(paths, select=select)

    if args.format == "json":
        print(json.dumps([{
            "rule": v.rule, "path": v.path, "line": v.line,
            "message": v.message,
        } for v in violations], indent=2))
    else:
        for violation in violations:
            print(violation)
        print(f"repro.analysis: {len(violations)} violation(s) in "
              f"{len(paths)} path(s)", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
