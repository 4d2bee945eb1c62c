"""Command-line entry point: ``repro-bench``.

Regenerates the paper's tables and figures::

    repro-bench table1 fig12            # specific experiments
    repro-bench --all --scale 0.25      # everything, quick mode
    repro-bench fig10 --json out.json   # machine-readable output
    repro-bench fig8 --trace t.json     # Perfetto-loadable trace
    repro-bench fig11 --metrics m.json  # per-node transport metrics
    repro-bench fig8 --report r.json    # latency-attribution RunReport
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import sys
import time

from repro.bench.experiments import ALL_EXPERIMENTS, Options
from repro.bench.report import render
from repro.telemetry.session import format_digest, session

__all__ = ["main"]

#: version of the ``--json`` result document layout.
#: v5 records the ``--tenants`` override in the document header.
#: v6 records the ``--policy`` selection in the document header.
#: v7 records each experiment's ``peak_rss_mib``.
#: v8 drops the ``topology`` field: every experiment names its own fabric.
RESULTS_SCHEMA_VERSION = 8


def _gc_passes() -> int:
    """Cyclic-collector passes this process has made so far."""
    return sum(stats["collections"] for stats in gc.get_stats())


def _peak_rss_mib() -> float:
    """The process's resident-set high-water mark so far, in MiB
    (``ru_maxrss``: KiB on Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the tables and figures of 'Design and "
                    "Evaluation of an RDMA-aware Data Shuffling Operator "
                    "for Parallel Database Systems' (EuroSys '17).",
    )
    parser.add_argument("experiments", nargs="*",
                        help=f"experiments to run: {', '.join(ALL_EXPERIMENTS)}")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="volume/scale-factor multiplier (default 1.0; "
                             "use 0.25 for a quick pass)")
    parser.add_argument("--nodes", type=int, default=None, metavar="N",
                        help="override the cluster size: fixed-size "
                             "experiments run at N nodes, node-count "
                             "sweeps collapse to N, and the mesoscale "
                             "sweep truncates its 64..1024 range at N")
    parser.add_argument("--tenants", type=int, default=3, metavar="N",
                        help="tenant count for the service experiments: "
                             "one MESQ/SR victim plus N-1 MEMQ/SR "
                             "aggressors (default 3)")
    parser.add_argument("--policy", metavar="SPEC", default="adaptive",
                        help="design selector for abl-adaptive: "
                             "adaptive, static:<DESIGN>, or a bare design "
                             "name (default adaptive); the two-phase "
                             "abl-hierarchical runs are fixed")
    parser.add_argument("--json", metavar="PATH",
                        help="additionally dump results as JSON")
    parser.add_argument("--metrics", metavar="PATH",
                        help="dump per-experiment telemetry snapshots "
                             "(per-node NIC/verbs/endpoint counters) as JSON")
    parser.add_argument("--report", metavar="PATH",
                        help="record causal link telemetry and dump a "
                             "schema-versioned RunReport (latency "
                             "attribution, percentiles, port utilization) "
                             "as JSON; 'python -m repro.obs diff BASE "
                             "FRESH' fails unless the aggregates are "
                             "equal")
    parser.add_argument("--trace", metavar="PATH",
                        help="record a Chrome trace-event file of every "
                             "simulated run (load in Perfetto / "
                             "chrome://tracing)")
    parser.add_argument("--sanitize", action="store_true",
                        help="run every simulation under the protocol "
                             "sanitizer (repro.analysis); exit non-zero "
                             "if any violation is detected")
    args = parser.parse_args(argv)

    # Validate eagerly so a typo fails before any experiment runs.
    try:
        opts = Options(scale=args.scale, nodes=args.nodes,
                       tenants=args.tenants, policy=args.policy)
    except ValueError as exc:
        parser.error(str(exc))

    names = list(ALL_EXPERIMENTS) if args.all else args.experiments
    if not names:
        parser.print_help()
        return 2
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")
    # Validate eagerly so a bad --nodes fails before any experiment runs.
    try:
        for name in names:
            ALL_EXPERIMENTS[name].nodes(opts.nodes)
    except ValueError as exc:
        parser.error(str(exc))

    experiments_out = []
    with session(trace=args.trace is not None,
                 sanitize=args.sanitize,
                 report=args.report is not None) as sess:
        for name in names:
            start = time.perf_counter()
            passes = _gc_passes()
            results = ALL_EXPERIMENTS[name](opts)
            digest = sess.checkpoint(name)
            if digest["runs"]:
                line = format_digest(digest)
                for result in results:
                    result.notes = (
                        f"{result.notes}; {line}" if result.notes else line)
            wall = time.perf_counter() - start
            passes = _gc_passes() - passes
            rss = _peak_rss_mib()
            for result in results:
                print(render(result))
                print()
            experiments_out.append({
                "name": name,
                "wall_clock_s": round(wall, 3),
                # Collector passes the experiment triggered: a run shows
                # here that it was collector-quiet (DESIGN.md,
                # "Collector-free drain").
                "gc_passes": passes,
                # The process high-water mark, not this experiment's
                # own peak: it only rises across the experiments of one
                # invocation.
                "peak_rss_mib": round(rss, 1),
                "results": [dataclasses.asdict(r) for r in results],
                "metrics_digest": digest if digest["runs"] else None,
            })
            print(f"[{name} done in {wall:.1f}s, peak RSS {rss:.0f} MiB, "
                  f"{passes} gc passes]", file=sys.stderr)
        if args.json:
            document = {
                "schema": {"name": "repro-bench-results",
                           "version": RESULTS_SCHEMA_VERSION},
                "scale": args.scale,
                "nodes": args.nodes,
                "tenants": args.tenants,
                "policy": args.policy,
                "experiments": experiments_out,
            }
            with open(args.json, "w") as fh:
                json.dump(document, fh, indent=2)
            print(f"wrote {args.json}", file=sys.stderr)
        if args.metrics:
            with open(args.metrics, "w") as fh:
                json.dump(sess.metrics_document(), fh, indent=2)
            print(f"wrote {args.metrics}", file=sys.stderr)
        if args.report:
            with open(args.report, "w") as fh:
                json.dump(sess.report_document(), fh, indent=2)
            print(f"wrote {args.report}", file=sys.stderr)
        if args.trace:
            sess.export_trace(args.trace)
            print(f"wrote {args.trace}", file=sys.stderr)
        if args.sanitize:
            print(sess.sanitizer_report(), file=sys.stderr)
            if sess.violation_count:
                return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
