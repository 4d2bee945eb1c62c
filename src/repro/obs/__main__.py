"""``python -m repro.obs`` — report tooling entry point.

Subcommands::

    python -m repro.obs diff baseline.json fresh.json   # exact baseline check
    python -m repro.obs render report.json [-o out.md]  # markdown view

``diff`` exits 1 iff the reports differ (see :mod:`repro.obs.diff`).  A
file that is missing, not JSON or not a report is a usage error: exit 2,
naming the file.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.diff import check_schema, diff, summary_line
from repro.obs.report import render_markdown


def load_report(parser: argparse.ArgumentParser, path: str):
    """The report document at ``path``, or ``parser.error`` naming it."""
    try:
        with open(path) as fh:
            document = json.load(fh)
    except (OSError, ValueError) as error:
        parser.error(f"{path}: {error}")
    for problem in check_schema(document, path):
        parser.error(problem)
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Critical-path report tooling: diff two run reports "
                    "or render one as markdown.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("diff", help="fail unless every experiment's "
                           "aggregate equals the baseline's")
    check.add_argument("baseline", help="committed baseline report JSON")
    check.add_argument("fresh", help="freshly generated report JSON")
    render = sub.add_parser("render", help="render a report as markdown")
    render.add_argument("report", help="report JSON produced by "
                                       "repro-bench --report")
    render.add_argument("-o", "--output", metavar="PATH",
                        help="write markdown here instead of stdout")
    args = parser.parse_args(argv)

    if args.command == "diff":
        baseline = load_report(check, args.baseline)
        fresh = load_report(check, args.fresh)
        for entry in fresh.get("experiments", []):
            print(summary_line(entry["name"], entry))
        failures = diff(baseline, fresh)
        if failures:
            print(*failures, sep="\n", file=sys.stderr)
            return 1
        print("obs diff: every experiment equals the baseline")
        return 0
    text = render_markdown(load_report(render, args.report))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
