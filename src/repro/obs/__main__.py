"""``python -m repro.obs`` — report tooling entry point.

Subcommands::

    python -m repro.obs diff baseline.json fresh.json   # exact baseline check
    python -m repro.obs render report.json [-o out.md]  # markdown view
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Critical-path report tooling: diff two run reports "
                    "or render one as markdown.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "diff", add_help=False,
        help="check a fresh report equals a baseline (see "
             "repro.obs.diff)")

    render = sub.add_parser("render", help="render a report as markdown")
    render.add_argument("report", help="report JSON produced by "
                                       "repro-bench --report")
    render.add_argument("-o", "--output", metavar="PATH",
                        help="write markdown here instead of stdout")

    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "diff":
        # Delegate everything after the subcommand so repro.obs.diff owns
        # its own flags and --help.
        from repro.obs.diff import main as diff_main
        return diff_main(argv[1:])
    args = parser.parse_args(argv)

    from repro.obs.report import render_markdown
    with open(args.report) as fh:
        document = json.load(fh)
    text = render_markdown(document)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
