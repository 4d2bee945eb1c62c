#!/usr/bin/env python3
"""Measure one row of the host trajectory, ``BENCH_host.json``.

    python3 benchmarks/host_row.py --tree DIR --commit SHA [--runs 5]

``DIR`` is a checkout of commit ``SHA`` (``git archive SHA | tar -x -C
DIR``).  The row holds the box (``nproc``, Python version) and, for
each ladder workload in ``BENCHMARK.json``, the median ``wall_s``,
``setup_s``, ``peak_rss_mib`` and ``sim_time_ms`` over ``--runs`` driver
runs (``benchmarks/ladder/run.py --workload W --seed N --seconds 8``),
taken repeat-major so that a slow minute spreads over every workload;
then the wall time and peak RSS of ``repro-bench fig8 --scale 0.05`` and
of the 256-node MESQ/SR ``fig10-scaleout`` point at scale 1.0.  One
process runs at a time.  The row is printed as JSON; append it to
``BENCH_host.json`` by hand.  The file gates nothing: rows from
different boxes are labelled by their box, not compared.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

#: the per-workload metrics a row keeps, as the ladder driver prints them.
LADDER_METRICS = ("wall_s", "setup_s", "peak_rss_mib", "sim_time_ms")

#: the 256-node MESQ/SR point of ``fig10_scaleout``, timed in one child.
SCALEOUT_POINT = """
import json, resource, time
from repro.bench import experiments as ex
point = ex.Point(
    "MESQ/SR", ex._scaleout_volume(256, 1.0), nodes=256, threads=1,
    topology=ex.LEAF_SPINE(ex.SCALEOUT_OVERSUBSCRIPTION,
                           ex.SCALEOUT_NODES_PER_LEAF),
    config=ex._mesoscale_config(4096))
started = time.perf_counter()
ex.measure(point)
wall = time.perf_counter() - started
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"wall_s": round(wall, 2), "peak_rss_mib": round(rss, 1)}))
"""


def _last_json(cmd, env=None, cwd=None) -> dict:
    out = subprocess.run(cmd, env=env, cwd=cwd, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def ladder(tree: Path, runs: int, seconds: int) -> dict:
    workloads = [w["name"] for w in json.loads(
        (tree / "BENCHMARK.json").read_text())["workloads"]]
    seen = {w: {m: [] for m in LADDER_METRICS} for w in workloads}
    for run in range(runs):
        for workload in workloads:
            metrics = _last_json(
                [sys.executable, "benchmarks/ladder/run.py", "--workload",
                 workload, "--seed", str(run + 1), "--seconds",
                 str(seconds)], cwd=tree)["metrics"]
            for name in LADDER_METRICS:
                seen[workload][name].append(metrics[name]["value"])
    return {w: {m: round(statistics.median(v), 6) for m, v in ms.items()}
            for w, ms in seen.items()}


def fig8(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "fig8.json"
        subprocess.run([sys.executable, "-m", "repro.bench.cli", "fig8",
                        "--scale", "0.05", "--json", str(out)], env=env,
                       check=True, capture_output=True)
        experiment = json.loads(out.read_text())["experiments"][0]
    return {"wall_s": experiment["wall_clock_s"],
            "peak_rss_mib": experiment["peak_rss_mib"]}


def scaleout_256(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return _last_json([sys.executable, "-c", SCALEOUT_POINT], env=env)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, required=True,
                        help="a checkout of the commit to measure")
    parser.add_argument("--commit", required=True,
                        help="the commit the tree holds (short sha)")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=8)
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    row = {
        "commit": args.commit,
        "date": datetime.date.today().isoformat(),
        "box": {"nproc": os.cpu_count(),
                "python": platform.python_version()},
        "runs": args.runs,
        "ladder": ladder(tree, args.runs, args.seconds),
        "fig8_scale_0.05": fig8(tree),
        "fig10_scaleout_256_mesq_sr": scaleout_256(tree),
    }
    print(json.dumps(row, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
