"""The paper-claims scorecard: every registry entry once, every claim a test.

Each entry of ``repro.bench.experiments.ALL_EXPERIMENTS`` (minus
``claims.EXEMPT``) runs once per session on the registry's own grid at
its check scale, and every row of ``repro.bench.claims.CLAIMS`` is one
parametrised test.  Tables and scorecard go to the git-ignored
``benchmarks/results.txt``, because pytest discards a passing test's
stdout; ``-s`` prints them as well.

    PYTHONPATH=src python -m pytest -q benchmarks --ignore=benchmarks/ladder
"""

import functools
import os

import pytest

from repro.bench import claims
from repro.bench.report import render

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")


@pytest.fixture(scope="session")
def scorecard():
    """``row_of(claim)``; on teardown, what the session evaluated."""
    rows = []
    with open(RESULTS_PATH, "w") as out:
        def show(text):
            print("\n" + text)
            out.write(text + "\n\n")

        @functools.lru_cache(maxsize=None)
        def results_of(entry):
            results = claims.check(entry)
            for result in results:
                show(render(result))
            return results

        def row_of(claim):
            results = results_of(claims.ENTRY_OF[claim.experiment])
            row, = claims.evaluate(results, [claim])
            rows.append(row)
            return row

        yield row_of
        show(claims.render(rows))


@pytest.mark.parametrize("claim", claims.CLAIMS, ids=lambda claim: claim.id)
def test_claim(claim, scorecard):
    row = scorecard(claim)
    assert row.holds, claims.render([row])

