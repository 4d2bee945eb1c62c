"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures on a
reduced grid (smaller transfer volumes / fewer sweep points) so the whole
suite completes in minutes, prints the reproduced series in the paper's
layout, and sanity-checks the *shape* (who wins, where degradation sets
in).  Full-scale reproduction: ``repro-bench --all``.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.report import ExperimentResult, render


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its value."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


#: rendered tables are also written here, because pytest captures (and,
#: for passing tests, discards) stdout; this file keeps the reproduced
#: rows/series of every figure from the latest benchmark run.  It is a
#: build product (git-ignored); ``results_full_scale.txt`` is the
#: archived full-scale copy EXPERIMENTS.md cites.
RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file():
    """Start every benchmark session with an empty results file."""
    open(RESULTS_PATH, "w").close()


def show(result) -> None:
    """Print one or many ExperimentResults and persist them."""
    if isinstance(result, ExperimentResult):
        result = [result]
    for item in result:
        text = render(item)
        print()
        print(text)
        with open(RESULTS_PATH, "a") as fh:
            fh.write(text + "\n\n")
