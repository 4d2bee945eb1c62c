#!/usr/bin/env python3
"""Count the bytecodes one ladder workload runs per fabric message.

    python3 benchmarks/opcodes.py WORKLOAD [--seed 1] [--scale 1.0] [--top 25]
                                  [--c-calls]

Builds the workload as the ladder's child does (``benchmarks/ladder/
workloads.py``), then counts every bytecode the interpreter executes
inside its measured call(s) with a ``sys.settrace`` opcode trace, and
divides by the run's fabric messages (``fabric.messages``).  Prints
the total, the count by layer (the ladder's ``spec.layer_of``) and the
``--top`` functions, then the same as one JSON line.

The count is deterministic: the same tree, workload, seed and scale
give the same number on any machine, so a change to the per-message
path can show its size without the wall-clock noise of a shared box.
Work in C (builtins, numpy kernels) is not counted; only Python
bytecode is.  Tracing slows the run down about 30 to 60 times.

``--c-calls`` also counts the calls into C, per fabric message and by
name, with a ``sys.setprofile`` hook on the same measured calls: every
builtin function and method (``len``, ``ndarray.searchsorted``,
``ndarray.take``, ...), and each numpy function written in C behind the
``__array_function__`` protocol (``numpy.bincount``,
``numpy.concatenate``, ...), seen as the call of its Python stub in
``numpy/_core/multiarray.py``.  Ufunc calls (``np.minimum``, the
arithmetic operators) raise no profiler event and are not counted.
Like the bytecodes, the count is deterministic, so a change to numpy
work shows as calls beside the bytecodes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))
LADDER = os.path.join(HERE, "ladder")
SRC = os.path.join(os.path.dirname(HERE), "src")


#: the file of numpy's Python stubs for its C functions.
_MULTIARRAY = os.path.join("numpy", "_core", "multiarray.py")


def _c_name(function) -> str:
    """``len``, ``ndarray.take``, ``_heapq.heappop``: a C function's
    qualified name, with its module unless that is ``builtins``."""
    name = getattr(function, "__qualname__", None) or repr(function)
    module = getattr(function, "__module__", None)
    return name if module in (None, "builtins") else f"{module}.{name}"


def count(workload_name: str, seed: int, scale: float,
          top: int = 25, c_calls: bool = False) -> Dict[str, Any]:
    """Run one workload with its measured calls traced; the counts, with
    the ``top`` functions by bytecodes (and, with ``c_calls``, by calls
    into C)."""
    for path in (SRC, LADDER):
        if path not in sys.path:
            sys.path.insert(0, path)
    import spec
    import workloads

    workload = workloads.BY_NAME[workload_name](seed, scale)
    workload.setup()
    by_code: Counter = Counter()

    def local(frame, event, _arg):
        if event == "opcode":
            by_code[frame.f_code] += 1
        return local

    def on_call(frame, _event, _arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    by_c_function: Counter = Counter()

    def profile(frame, event, arg):
        if event == "c_call":
            by_c_function[_c_name(arg)] += 1
        elif event == "call" and frame.f_code.co_filename.endswith(
                _MULTIARRAY):
            by_c_function[f"numpy.{frame.f_code.co_name}"] += 1

    def measured(call):
        if c_calls:
            sys.setprofile(profile)
        sys.settrace(on_call)
        try:
            return call()
        finally:
            sys.settrace(None)
            sys.setprofile(None)

    workload.measured = measured
    workload.run()
    sys.settrace(None)
    messages = workload.harvest()["counters"]["fabric.messages"]
    workload.dispose()

    layers: Counter = Counter()
    functions: Counter = Counter()
    for code, n in by_code.items():
        layers[spec.layer_of(code.co_filename)] += n
        where = code.co_filename.replace("\\", "/")
        if "/repro/" in where:
            where = where[where.index("/repro/") + 1:]
        else:
            where = os.path.basename(where)
        functions[f"{where}:{code.co_firstlineno} {code.co_qualname}"] += n
    total = sum(layers.values())
    per = max(1, messages)
    result = {
        "workload": workload_name, "seed": seed, "scale": scale,
        "fabric_messages": messages, "bytecodes": total,
        "per_message": round(total / per, 1),
        "by_layer": {layer: round(n / per, 1)
                     for layer, n in layers.most_common()},
        "by_function": {name: round(n / per, 2)
                        for name, n in functions.most_common(top)},
    }
    if c_calls:
        calls = sum(by_c_function.values())
        result.update({
            "c_calls": calls,
            "c_calls_per_message": round(calls / per, 2),
            "by_c_function": {name: round(n / per, 3) for name, n
                              in by_c_function.most_common(top)},
        })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--top", type=int, default=25,
                        help="functions to list, by bytecodes")
    parser.add_argument("--c-calls", action="store_true",
                        help="also count calls into C functions, by name")
    args = parser.parse_args(argv)
    result = count(args.workload, args.seed, args.scale, args.top,
                   args.c_calls)
    print(f"{result['workload']} seed {result['seed']} scale "
          f"{result['scale']}: {result['bytecodes']:,} bytecodes over "
          f"{result['fabric_messages']:,} fabric messages, "
          f"{result['per_message']:,} per message")
    print("by layer, per message:")
    for layer, n in result["by_layer"].items():
        print(f"  {n:10.1f}  {layer}")
    print(f"top {args.top} functions, per message:")
    for name, n in result["by_function"].items():
        print(f"  {n:10.2f}  {name}")
    if args.c_calls:
        print(f"{result['c_calls']:,} calls into C, "
              f"{result['c_calls_per_message']:,} per message; top "
              f"{args.top}, per message:")
        for name, n in result["by_c_function"].items():
            print(f"  {n:10.3f}  {name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
