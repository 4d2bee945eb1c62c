"""Query fragments and worker threads.

A query plan is divided into fragments replicated across the cluster
(§2.1); each fragment runs ``t`` worker threads, each exclusively bound
to a CPU core.  A worker repeatedly calls ``next(tid)`` on the fragment's
root operator until it reports Depleted, optionally feeding batches to a
sink.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

from repro.engine.operator import OPS_DEPLETED, Operator, concat_batches
from repro.sim import AllOf, Event, Simulator

__all__ = ["CollectSink", "CountSink", "QueryFragment", "run_fragments"]


class CollectSink:
    """Collects every batch a fragment produces (small results only)."""

    def __init__(self):
        self._batches: List[np.ndarray] = []

    def consume(self, tid: int, batch: Optional[np.ndarray]) -> None:
        if batch is not None and len(batch):
            self._batches.append(batch)

    def result(self) -> Optional[np.ndarray]:
        return concat_batches(self._batches)


class CountSink:
    """Counts rows and bytes without retaining data (benchmark use)."""

    def __init__(self):
        self.rows = 0
        self.nbytes = 0

    def consume(self, tid: int, batch: Optional[np.ndarray]) -> None:
        if batch is not None:
            self.rows += len(batch)
            self.nbytes += batch.nbytes


class QueryFragment:
    """One fragment: a root operator plus its worker threads."""

    def __init__(self, node, root: Operator, threads: int,
                 sink: Optional[Any] = None, name: str = ""):
        self.node = node
        self.sim: Simulator = node.sim
        self.root = root
        self.threads = threads
        self.sink = sink
        self.name = name or f"fragment-n{node.id}"

    def start(self) -> Event:
        """Launch the worker threads; returns an all-done event."""
        return AllOf(self.sim, [
            self.sim.process(self._worker(tid), name=f"{self.name}-t{tid}")
            for tid in range(self.threads)
        ])

    def _worker(self, tid: int):
        while True:
            state, batch = yield from self.root.next(tid)
            if self.sink is not None:
                self.sink.consume(tid, batch)
            # A thread waiting for its next batch holds no old one.
            batch = None
            if state == OPS_DEPLETED:
                return


def _chained(fragments: Sequence[QueryFragment]):
    """Run fragments strictly one after another (a sender chain)."""
    for fragment in fragments:
        yield fragment.start()


def run_fragments(sim: Simulator, fragments: List[QueryFragment],
                  chains: Sequence[Sequence[QueryFragment]] = ()):
    """Process fragment: start every fragment, plus one process per
    chain running its fragments sequentially; wait for all to finish.

    Returns the wall-clock nanoseconds from start to the last finisher.
    """
    start = sim.now
    done = [frag.start() for frag in fragments]
    done += [sim.process(_chained(chain), name=f"chain-{i}")
             for i, chain in enumerate(chains)]
    yield AllOf(sim, done)
    return sim.now - start
