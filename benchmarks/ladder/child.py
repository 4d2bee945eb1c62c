"""One fresh process per measurement: a workload, the rungs, or a warm-up.

The parent (``run.py``) starts exactly one child at a time and reads the
single JSON line the child prints last.  A workload child times its four
phases as in-memory spans (``workload`` -> ``setup``, ``run``,
``harvest``, ``dispose``) and, with ``--profile``, wraps the measured call
in ``cProfile`` and folds the profile by layer.
"""

from __future__ import annotations

import cProfile
import heapq
import json
import pstats
import resource
import sys
import time
from typing import Any, Dict, List, Optional

import spec


def machine_pace() -> float:
    """Seconds this machine takes right now for a fixed piece of pure
    Python (heap, dict and integer work, nothing of the program): the
    best of three short repetitions, so that only a slowdown that lasts
    counts.  The parent divides a child's times by its pace relative to
    ``spec.REFERENCE_PACE_S``."""
    best = float("inf")
    for _ in range(3):
        heap: List[Any] = []
        seen: Dict[int, int] = {}
        push, pop = heapq.heappush, heapq.heappop
        started = time.perf_counter()
        for i in range(50_000):
            push(heap, ((i * 7919) % 10007, i))
            seen[i & 1023] = i
            if i & 3 == 3:
                pop(heap)
                pop(heap)
        best = min(best, time.perf_counter() - started)
    return best


class Spans:
    """Phase spans kept in memory; written out by the parent."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: List[Dict[str, Any]] = []

    def begin(self, name: str, parent: Optional[int] = None) -> int:
        self.spans.append({"id": len(self.spans), "trace": self.trace_id,
                           "name": name, "parent": parent,
                           "start_s": time.monotonic(), "end_s": None})
        return len(self.spans) - 1

    def end(self, span_id: int) -> float:
        span = self.spans[span_id]
        span["end_s"] = time.monotonic()
        return span["end_s"] - span["start_s"]


def fold_profile(profile: cProfile.Profile) -> Dict[str, Any]:
    """Self time and call counts by layer.

    A Python function's ``tottime`` goes to the layer of its source file.
    A C function has no source file: numpy's go to ``numpy``, every other
    builtin (``heappush``, ``list.append``...) is charged to the layers of
    its callers, in proportion to the time each caller spent in it, so that
    the kernel's heap operations count as ``sim`` and not as ``other``.
    Nothing is dropped: the layers sum to the profiler's total.
    """
    stats = pstats.Stats(profile)
    self_s = {layer: 0.0 for layer in spec.LAYERS}
    calls = {layer: 0 for layer in spec.LAYERS}
    for (path, _line, name), (_cc, ncalls, tottime, _ct, callers) in (
            stats.stats.items()):
        if path != "~":
            layer = spec.layer_of(path)
            self_s[layer] += tottime
            calls[layer] += ncalls
        elif "numpy" in name:
            self_s["numpy"] += tottime
            calls["numpy"] += ncalls
        elif not callers:
            self_s["other"] += tottime
            calls["other"] += ncalls
        else:
            for (caller_path, _l, _n), (from_calls, _c, from_tt, _t) in (
                    callers.items()):
                layer = spec.layer_of(caller_path)
                self_s[layer] += from_tt
                calls[layer] += from_calls
    return {"self_s": self_s, "calls": calls,
            "total_s": stats.total_tt, "total_calls": stats.total_calls}


def run_workload(name: str, seed: int, scale: float, profile: bool,
                 spawned_at: Optional[float]) -> Dict[str, Any]:
    started = spawned_at if spawned_at is not None else time.monotonic()
    import workloads  # imports repro and numpy: part of setup_s

    spans = Spans(f"{name}:{seed}")
    root = spans.begin("workload")
    span = spans.begin("setup", root)
    workload = workloads.BY_NAME[name](seed, scale)
    workload.setup()
    spans.end(span)
    setup_s = time.monotonic() - started

    profiler = cProfile.Profile() if profile else None
    pace_before = machine_pace()
    span = spans.begin("run", root)
    wall_started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    workload.run()
    if profiler is not None:
        profiler.disable()
    wall_s = time.perf_counter() - wall_started
    spans.end(span)
    pace_after = machine_pace()

    span = spans.begin("harvest", root)
    harvested = workload.harvest()
    harvest_s = spans.end(span)
    span = spans.begin("dispose", root)
    workload.dispose()
    dispose_s = spans.end(span)
    spans.end(root)

    sim_time_ns = harvested["sim_time_ns"]
    record: Dict[str, Any] = {
        "kind": "workload", "workload": name, "seed": seed, "scale": scale,
        "profiled": profile,
        "host": {
            "wall_s": wall_s, "calls_s": workload.calls_s,
            "setup_s": setup_s, "pace_s": [pace_before, pace_after],
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "harvest_s": harvest_s, "dispose_s": dispose_s,
        },
        "sim": {
            "sim_time_ms": sim_time_ns / 1e6,
            "bytes_delivered": harvested["bytes_delivered"],
            "nodes": harvested["nodes"],
        },
        "checks": {"attempted": workload.checks.attempted,
                   "failed": workload.checks.failed},
        "counters": harvested["counters"],
        "spans": spans.spans,
    }
    if profiler is not None:
        record["profile"] = fold_profile(profiler)
    return record


def run_rungs(scale: float) -> Dict[str, Any]:
    import rungs

    started = time.perf_counter()
    values = rungs.run_all(scale)
    return {"kind": "rungs", "scale": scale, "rungs": values,
            "host": {"wall_s": time.perf_counter() - started}}


def warm_up() -> Dict[str, Any]:
    """Import everything a child imports, so the first timed child finds
    the bytecode cache and the page cache as warm as the last one does."""
    import rungs  # noqa: F401
    import workloads  # noqa: F401

    return {"kind": "warm"}


def main(args) -> int:
    if args.child == "rungs":
        record = run_rungs(args.scale)
    elif args.child == "warm":
        record = warm_up()
    else:
        record = run_workload(args.child, args.seed, args.scale,
                              args.profile, args.spawned_at)
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()
    return 0
