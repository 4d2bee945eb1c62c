#!/usr/bin/env python3
"""The ladder benchmark: seven workloads, five end-to-end metrics, and a
per-layer ladder for the whole stack.  See README.md beside this file.

Driver contract (``BENCHMARK.json``)::

    python3 benchmarks/ladder/run.py --workload W --seed N --seconds S --trace 0|1

prints, as its last line, ``{"correct", "attempted", "failed", "metrics"}``.

Whole-benchmark passes (every workload, interleaved repeat-major)::

    python3 benchmarks/ladder/run.py [--seed 1] [--repeats 5] [--out DIR]
    python3 benchmarks/ladder/run.py --check-aa
    python3 benchmarks/ladder/run.py --selftest
    python3 benchmarks/ladder/run.py --write-baseline

One parent drives one fresh child process at a time (``--child``); the
program under test is only ever imported in a child.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import spec  # noqa: E402  (needs HERE on the path)

#: execution-mode switches of the program; the benchmark measures the
#: default mode only and refuses to run under any other.
FORBIDDEN_ENV = ("REPRO_FASTPATH", "REPRO_TRAINS")
SELFTEST_SCALE = 1 / 16
WORKLOAD_NAMES = [name for name, _why in spec.WORKLOADS]
HOST_METRICS = ("wall_s", "setup_s", "peak_rss_mib")
#: the times among them, which are scaled by the child's machine pace.
PACED = ("wall_s", "setup_s")
#: counters that are host measurements, not part of the simulated result.
HOST_COUNTERS = {name for name, _u, _b, kind, _m in spec.COUNTERS
                 if kind == "host"}


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (environment, child crash)."""


# -- environment -------------------------------------------------------------


def guard_environment() -> None:
    present = [name for name in FORBIDDEN_ENV if name in os.environ]
    if present:
        raise BenchmarkError(
            f"{', '.join(present)} set: the ladder measures the default "
            "execution mode only; unset it and run again")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchmarkError(f"no program to measure: {SRC}/repro is missing")


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment_record(seed: int, repeats: int) -> Dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"kind": "environment", "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "git_commit": git_commit(), "seed": seed, "repeats": repeats,
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


# -- children ----------------------------------------------------------------


class Session:
    """Starts children one at a time and keeps every raw record."""

    def __init__(self, out_dir: Optional[str] = None):
        self.out_dir = out_dir
        self.records: List[Dict[str, Any]] = []
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)

    def log(self, record: Dict[str, Any]) -> Dict[str, Any]:
        self.records.append(record)
        if self.out_dir is not None:
            with open(os.path.join(self.out_dir, "raw.jsonl"), "a") as fh:
                fh.write(json.dumps(record) + "\n")
        return record

    def child(self, what: str, seed: int = 0, scale: float = 1.0,
              profile: bool = False, label: str = "") -> Dict[str, Any]:
        load = os.getloadavg()[0]
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                     if p])
        command = [sys.executable, os.path.abspath(__file__),
                   "--child", what, "--seed", str(seed),
                   "--scale", repr(scale),
                   "--spawned-at", repr(time.monotonic())]
        if profile:
            command.append("--profile")
        try:
            done = subprocess.run(command, env=env, cwd=ROOT, text=True,
                                  stdout=subprocess.PIPE, timeout=170)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"child {what!r} took over 170 s") from None
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchmarkError(
                f"child {what!r} exited with code {done.returncode}")
        record = json.loads(lines[-1])
        record.update(label=label, load_1min=load,
                      noisy=load > (os.cpu_count() or 1))
        return self.log(record)


def start_session(out_dir: Optional[str], seed: int,
                  repeats: int) -> Session:
    """A session whose first record is the environment, with the
    throw-away warm-up child already run."""
    session = Session(out_dir)
    session.log(environment_record(seed, repeats))
    session.child("warm", label="warm-up")
    return session


# -- summaries ---------------------------------------------------------------


def second_best(values) -> float:
    """The second smallest sample (the only one, if there is one)."""
    return sorted(values)[:2][-1]


def spread(values: List[float]) -> Dict[str, float]:
    """Median, best, second best and quartiles of one metric's samples."""
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "second": second_best(values)}
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def pace_of(record: Dict[str, Any]) -> float:
    """How much slower than the reference the machine ran around this
    child's measured calls (1.0: as fast as the authoring box at its
    best).  The child times a fixed piece of pure Python right before and
    right after; the faster of the two is the machine's pace, so a burst
    that hit one of them is not mistaken for a slow machine, while a
    slowdown that lasted through both is.  The box this was written on
    runs everything 1.3 to 2 times slower for minutes at a time; without
    this, such a phase reads as a regression of whatever it lands on."""
    return min(record["host"]["pace_s"]) / spec.REFERENCE_PACE_S


def paced(record: Dict[str, Any], name: str) -> float:
    value = record["host"][name]
    return value / pace_of(record) if name in PACED else value


def paced_wall(records: List[Dict[str, Any]]) -> float:
    """``wall_s`` of a set of children: the sum, over the workload's
    measured calls, of each call's second-best paced time among the
    children.

    A workload of several calls (six queries, two observed legs) is that
    many deterministic pieces of work; taking each piece on its own finds
    an undisturbed sample of every piece even when no child ran
    undisturbed from end to end.
    """
    calls = ([t / pace_of(record) for t in record["host"]["calls_s"]]
             for record in records)
    return sum(second_best(times) for times in zip(*calls))


def sim_signature(record: Dict[str, Any]) -> Dict[str, Any]:
    """Everything simulated in a record; must repeat bit-identically."""
    signature = {name: value for name, value in record["counters"].items()
                 if name not in HOST_COUNTERS}
    signature["sim_time_ms"] = record["sim"]["sim_time_ms"]
    return signature


def summarise(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One workload's children -> end-to-end metrics and check totals.

    Every child's own output checks count, plus one check per later child
    that its simulated results equal the first child's; a child that
    differs has all of its checks counted as failed.

    Times are the second-best child's: the program is deterministic and
    single-threaded, so what varies between fresh children is interference
    from outside, which only ever adds time, and the best is set aside
    because pacing can over-correct one child.  Memory is the median.
    """
    first = records[0]
    reference = sim_signature(first)
    attempted, failed = 0, []
    for index, record in enumerate(records):
        checks = record["checks"]
        attempted += checks["attempted"]
        failed += checks["failed"]
        if index == 0:
            continue
        attempted += 1
        signature = sim_signature(record)
        if signature != reference:
            differing = sorted(k for k in reference
                               if signature.get(k) != reference[k])
            failed.append(f"repeat {index} differs from repeat 0 in "
                          f"{', '.join(differing)}")
            failed += [f"repeat {index}: check void (simulated results "
                       "differ)"] * (checks["attempted"] - len(checks["failed"]))
    host = {name: spread([paced(r, name) for r in records])
            for name in HOST_METRICS}
    host["pace"] = spread([pace_of(r) for r in records])
    host["wall_s_unpaced"] = spread([r["host"]["wall_s"] for r in records])
    sim = first["sim"]
    wall = paced_wall(records)
    metrics = {"wall_s": wall, "setup_s": host["setup_s"]["second"],
               "peak_rss_mib": host["peak_rss_mib"]["median"],
               "sim_time_ms": sim["sim_time_ms"],
               "passed_share": 1.0 - len(failed) / attempted}
    derived = {
        "sim_gib_s_node": sim["bytes_delivered"] / 2**30
        / (sim["sim_time_ms"] / 1e3) / sim["nodes"],
        "events_per_wall_s": first["counters"]["sim.events"] / wall,
        "mib_per_wall_s": sim["bytes_delivered"] / 2**20 / wall,
    }
    return {"workload": first["workload"], "metrics": metrics,
            "detail": host, "derived": derived, "counters": first["counters"],
            "signature": reference,
            "attempted": attempted, "failed": failed,
            "noisy_children": sum(1 for r in records if r["noisy"])}


def per_layer_metrics(untraced: Dict[str, Any], traced: Dict[str, Any],
                      rungs: Dict[str, Any]) -> Dict[str, float]:
    """Every declared per-layer metric of one workload: the folded profile
    of the traced child, the counters of the untraced run, the rungs."""
    profile = traced["profile"]
    out: Dict[str, float] = {}
    for layer in spec.LAYERS:
        out[f"host.self_s.{layer}"] = profile["self_s"][layer]
        out[f"host.calls_m.{layer}"] = profile["calls"][layer] / 1e6
    out["host.calls_m.total"] = profile["total_calls"] / 1e6
    out["host.calls_per_event"] = (
        profile["total_calls"] / max(1, traced["counters"]["sim.events"]))
    out["trace.overhead_ratio"] = (
        paced(traced, "wall_s") / untraced["metrics"]["wall_s"])
    out.update(untraced["counters"])
    out.update(rungs["rungs"])
    return out


def traced_checks(untraced: Dict[str, Any], traced: Dict[str, Any]):
    """The traced child's own checks, that it simulated what the untraced
    run did, and that the folded profile conserves the profiler's total."""
    checks = traced["checks"]
    attempted = untraced["attempted"] + checks["attempted"] + 2
    failed = untraced["failed"] + checks["failed"]
    if sim_signature(traced) != untraced["signature"]:
        failed.append("traced run simulated something else than the "
                      "untraced run")
    profile = traced["profile"]
    folded = sum(profile["self_s"].values())
    if abs(folded - profile["total_s"]) > 0.01 * profile["total_s"]:
        failed.append(f"layers sum to {folded:.4f} s of the profiler's "
                      f"{profile['total_s']:.4f} s")
    return attempted, failed


def chrome_trace(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The children's phase spans as Chrome-trace complete events."""
    events = []
    for pid, record in enumerate(r for r in records if "spans" in r):
        for span in record["spans"]:
            events.append({
                "name": span["name"], "ph": "X", "pid": pid, "tid": 0,
                "ts": span["start_s"] * 1e6,
                "dur": (span["end_s"] - span["start_s"]) * 1e6,
                "args": {"trace": span["trace"], "id": span["id"],
                         "parent": span["parent"],
                         "label": record.get("label", "")}})
    return {"traceEvents": events}


# -- printing ----------------------------------------------------------------


def print_end_to_end(summary: Dict[str, Any]) -> None:
    units = {m["name"]: (m["unit"], m["kind"]) for m in spec.end_to_end()}
    for name, value in summary["metrics"].items():
        unit, kind = units[name]
        detail = summary["detail"].get(name)
        extra = ""
        if detail is not None:
            extra = (f"  (min {detail['min']:.4f}, median "
                     f"{detail['median']:.4f}, n={detail['n']}")
            if "q1" in detail:
                extra += f", q1 {detail['q1']:.4f}, q3 {detail['q3']:.4f}"
            extra += ")"
        print(f"  {summary['workload']:<14} {name:<14} {value:>14.4f} "
              f"{unit:<6} [{kind}]{extra}")
    for name, value in summary["derived"].items():
        print(f"  {summary['workload']:<14} {name:<14} {value:>14.4f} "
              f"       [derived, not gated]")
    pace, unpaced = summary["detail"]["pace"], summary["detail"]["wall_s_unpaced"]
    print(f"  {summary['workload']:<14} machine pace   {pace['median']:>14.4f} "
          f"x      [host]  (min {pace['min']:.4f}; wall_s before pacing: "
          f"min {unpaced['min']:.4f}, median {unpaced['median']:.4f})")
    print(f"  {summary['workload']:<14} failed_share   "
          f"{len(summary['failed'])}/{summary['attempted']}"
          + (f"  noisy children: {summary['noisy_children']}"
             if summary["noisy_children"] else ""))
    for failure in summary["failed"]:
        print(f"    FAILED: {failure}")


def print_per_layer(workload: str, values: Dict[str, float]) -> None:
    declared = {m["name"]: m for m in spec.per_layer()}
    for name, value in values.items():
        metric = declared[name]
        print(f"  {workload:<14} {name:<36} {value:>16.4f} "
              f"{metric['unit']:<12} [{metric['kind']}]")


# -- the driver's entry: one workload, one run -------------------------------


def timed_run(session: Session, workload: str, seed: int, seconds: float,
              scale: float) -> Dict[str, Any]:
    """Fresh children of one workload until ``seconds`` have passed (at
    least MIN_CHILDREN); the next child starts only if it should fit."""
    started = time.monotonic()
    records: List[Dict[str, Any]] = []
    while True:
        child_started = time.monotonic()
        records.append(session.child(workload, seed, scale, label="timed"))
        now = time.monotonic()
        if len(records) >= spec.MIN_CHILDREN and (
                now - started + (now - child_started) > seconds):
            return summarise(records)


def traced_run(session: Session, workload: str, seed: int, scale: float,
               untraced: Optional[Dict[str, Any]] = None,
               rungs: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The per-layer numbers of one workload: an untraced child (wall-clock
    and counters), a profiled child, and the rungs."""
    if untraced is None:
        untraced = summarise(
            [session.child(workload, seed, scale, label="untraced")])
    traced = session.child(workload, seed, scale, profile=True,
                           label="traced")
    if rungs is None:
        rungs = session.child("rungs", scale=scale, label="rungs")
    attempted, failed = traced_checks(untraced, traced)
    return {"workload": workload, "attempted": attempted, "failed": failed,
            "metrics": per_layer_metrics(untraced, traced, rungs)}


def driver_main(args) -> int:
    session = start_session(args.out, args.seed, 0)
    if args.trace:
        result = traced_run(session, args.workload, args.seed, args.scale)
        print_per_layer(args.workload, result["metrics"])
        for failure in result["failed"]:
            print(f"    FAILED: {failure}")
        units = {m["name"]: m["unit"] for m in spec.per_layer()}
        if args.out is not None:
            path = os.path.join(args.out, f"trace_{args.workload}.json")
            with open(path, "w") as fh:
                json.dump(chrome_trace(session.records), fh)
    else:
        result = timed_run(session, args.workload, args.seed, args.seconds,
                           args.scale)
        print_end_to_end(result)
        units = {m["name"]: m["unit"] for m in spec.end_to_end()}
    print(json.dumps({
        "correct": not result["failed"],
        "attempted": result["attempted"],
        "failed": len(result["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


# -- whole-benchmark passes --------------------------------------------------


def timed_passes(session: Session, seed: int, repeats: int, scale: float,
                 labels: List[str]) -> List[Dict[str, Dict[str, Any]]]:
    """Every workload ``repeats`` times per label, repeat-major, so that a
    noisy minute spreads over all workloads instead of landing on one.
    Several labels (the two sides of an A/A) are interleaved child by
    child, the side that goes first alternating with the repeat, so that
    the same minute also lands on both sides."""
    records: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
        label: {w: [] for w in WORKLOAD_NAMES} for label in labels}
    for repeat in range(repeats):
        order = labels if repeat % 2 == 0 else labels[::-1]
        for workload in WORKLOAD_NAMES:
            print(f"# repeat {repeat + 1}/{repeats}: {workload}",
                  file=sys.stderr)
            for label in order:
                records[label][workload].append(
                    session.child(workload, seed, scale, label=label))
    return [{w: summarise(rs) for w, rs in records[label].items()}
            for label in labels]


def full_run(out_dir: Optional[str], seed: int, repeats: int,
             scale: float) -> Dict[str, Any]:
    session = start_session(out_dir, seed, repeats)
    timed, = timed_passes(session, seed, repeats, scale, ["timed"])
    print("# rungs", file=sys.stderr)
    rungs = session.child("rungs", scale=scale, label="rungs")
    traced = {}
    for workload in WORKLOAD_NAMES:
        print(f"# traced: {workload}", file=sys.stderr)
        traced[workload] = traced_run(session, workload, seed, scale,
                                      untraced=timed[workload], rungs=rungs)
    print("== end-to-end (tracing off; times: second-best repeat, paced; "
          "memory: median) ==")
    for workload in WORKLOAD_NAMES:
        print_end_to_end(timed[workload])
    print("== per-layer (traced pass, counters, rungs) ==")
    for workload in WORKLOAD_NAMES:
        print_per_layer(workload, traced[workload]["metrics"])
        for failure in traced[workload]["failed"]:
            print(f"    FAILED: {failure}")
    if session.out_dir is not None:
        with open(os.path.join(session.out_dir, "trace.json"), "w") as fh:
            json.dump(chrome_trace(session.records), fh)
        print(f"raw records and phase trace: {session.out_dir}")
    return {"timed": timed, "traced": traced}


def document(result: Dict[str, Any]) -> Dict[str, Any]:
    """What one full run emitted, by name (the thing --selftest checks
    against BENCHMARK.json and --write-baseline commits)."""
    return {
        "workloads": {
            workload: {
                "end_to_end": result["timed"][workload]["metrics"],
                "detail": result["timed"][workload]["detail"],
                "derived": result["timed"][workload]["derived"],
                "per_layer": result["traced"][workload]["metrics"],
            } for workload in result["timed"]},
    }


def failures_of(result: Dict[str, Any]) -> List[str]:
    return [f"{workload}: {failure}"
            for part in ("timed", "traced")
            for workload, summary in result[part].items()
            for failure in summary["failed"]]


def check_aa(args) -> int:
    """Two timed passes of the same tree, interleaved, must agree within
    the bounds (host metrics) or exactly (everything simulated)."""
    session = start_session(args.out, args.seed, args.repeats)
    first, second = timed_passes(session, args.seed, args.repeats,
                                 args.scale, ["aa-1", "aa-2"])
    agree = True
    print(f"{'workload':<14} {'metric':<14} {'first':>12} {'second':>12} "
          f"{'change':>8} {'bound':>7}  verdict")
    for workload in WORKLOAD_NAMES:
        for metric in spec.end_to_end():
            name, bound = metric["name"], metric["bound"]
            a = first[workload]["metrics"][name]
            b = second[workload]["metrics"][name]
            change = (b - a) / a
            ok = abs(change) <= bound if metric["kind"] == "host" else a == b
            agree &= ok
            print(f"{workload:<14} {name:<14} {a:>12.4f} {b:>12.4f} "
                  f"{change:>+8.2%} {bound:>7.1%}  "
                  f"{'agree' if ok else 'DISAGREE'}")
        if first[workload]["signature"] != second[workload]["signature"]:
            agree = False
            print(f"{workload:<14} sim counters differ between the passes")
    for failure in [f for r in (first, second) for w in r.values()
                    for f in w["failed"]]:
        agree = False
        print(f"FAILED: {failure}")
    print("A/A: the two passes agree" if agree else
          "A/A: DISAGREE (raise --repeats rather than widening a bound)")
    return 0 if agree else 1


def declared_against_emitted(emitted: Dict[str, Any]) -> List[str]:
    """Problems between BENCHMARK.json, spec.py and an emitted document."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        declared = json.load(fh)
    problems = spec.validate_declaration(declared)
    if declared != spec.benchmark_json():
        problems.append("BENCHMARK.json is not what spec.py generates; "
                        "run --write-baseline")
    workloads = {w["name"] for w in declared["workloads"]}
    if workloads != set(emitted["workloads"]):
        problems.append(f"workloads differ: "
                        f"{sorted(workloads ^ set(emitted['workloads']))}")
    for part in ("end_to_end", "per_layer"):
        names = {m["name"] for m in declared[part]}
        for workload, values in emitted["workloads"].items():
            if names != set(values[part]):
                problems.append(
                    f"{workload} {part}: declared and emitted differ in "
                    f"{sorted(names ^ set(values[part]))}")
    return problems


def selftest(args) -> int:
    """Every workload and rung at 1/16 volume, once, checked against the
    declaration.  Under a minute."""
    started = time.monotonic()
    result = full_run(args.out, args.seed, 1, SELFTEST_SCALE)
    problems = failures_of(result) + declared_against_emitted(document(result))
    for problem in problems:
        print(f"SELFTEST PROBLEM: {problem}")
    print(f"selftest: {'ok' if not problems else 'FAILED'} in "
          f"{time.monotonic() - started:.1f} s")
    return 1 if problems else 0


def write_baseline(args) -> int:
    result = full_run(args.out, args.seed, args.repeats, args.scale)
    failures = failures_of(result)
    if failures:
        print("not writing a baseline of a failing run:", *failures, sep="\n  ")
        return 1
    baseline = dict(environment_record(args.seed, args.repeats),
                    kind="baseline", end_to_end=spec.end_to_end(),
                    per_layer=spec.per_layer(), **document(result))
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
        json.dump(spec.benchmark_json(), fh, indent=2)
        fh.write("\n")
    print("wrote benchmarks/ladder/baseline.json and BENCHMARK.json")
    return 0


# -- command line ------------------------------------------------------------


def parse_args(argv: Optional[List[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="driver mode: measure this one workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="driver mode: keep starting children this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 emits the per-layer metrics")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", help="directory for raw.jsonl and traces "
                        "(whole-benchmark passes default to a temp dir)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--check-aa", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-baseline", action="store_true")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--profile", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        guard_environment()
        if args.child is not None:
            import child
            return child.main(args)
        if args.workload is not None:
            return driver_main(args)
        if args.out is None:
            args.out = tempfile.mkdtemp(prefix="ladder-")
        if args.check_aa:
            return check_aa(args)
        if args.selftest:
            return selftest(args)
        if args.write_baseline:
            return write_baseline(args)
        result = full_run(args.out, args.seed, args.repeats, args.scale)
        return 1 if failures_of(result) else 0
    except BenchmarkError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
