#!/usr/bin/env python3
"""Count the bytecodes one ladder workload runs per fabric message.

    python3 benchmarks/opcodes.py WORKLOAD [--seed 1] [--scale 1.0] [--top 25]

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


def count(workload_name: str, seed: int, scale: float,
          top: int = 25) -> Dict[str, Any]:
    """Run one workload with its measured calls traced; the counts, with
    the ``top`` functions by bytecodes."""
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

    def measured(call):
        sys.settrace(on_call)
        try:
            return call()
        finally:
            sys.settrace(None)

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
    return {
        "workload": workload_name, "seed": seed, "scale": scale,
        "fabric_messages": messages, "bytecodes": total,
        "per_message": round(total / per, 1),
        "by_layer": {layer: round(n / per, 1)
                     for layer, n in layers.most_common()},
        "by_function": {name: round(n / per, 2)
                        for name, n in functions.most_common(top)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--top", type=int, default=25,
                        help="functions to list, by bytecodes")
    args = parser.parse_args(argv)
    result = count(args.workload, args.seed, args.scale, args.top)
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
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
