"""In-memory hash join.

The build side is drained cooperatively by all worker threads into a
shared table the first time any thread calls NEXT; a barrier then
separates the build and probe phases, after which threads probe their own
batches independently — the standard parallel hash-join structure of
in-memory engines [20].

That is the *simulated* operator, and what the per-tuple build and probe
costs charge for.  On the host the table is the build keys in sorted
order (one stable ``argsort``) and a probe is two ``searchsorted`` calls
per batch: whole-column numpy passes, no per-row Python.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.engine.operator import (
    OPS_DEPLETED,
    Operator,
    concat_batches,
    pack_columns,
)
from repro.sim import Barrier

__all__ = ["HashJoinOperator"]

#: per-tuple hash-table insert cost.
BUILD_NS_PER_TUPLE = 12.0
#: per-tuple probe cost.
PROBE_NS_PER_TUPLE = 10.0


class HashJoinOperator(Operator):
    """Equi-join: ``build.key == probe.key``.

    Output batches hold the probe columns followed by the build columns
    named in ``build_payload`` (default: all but the build key) as one
    packed record; matches come in probe-row order and, for one probe
    row, in build insertion order.  ``semi=True`` turns it into a left
    semi-join on the probe side (used by TPC-H Q4's EXISTS).
    """

    def __init__(self, node, build: Operator, probe: Operator,
                 build_key: str, probe_key: str, num_threads: int,
                 semi: bool = False, build_payload: Optional[List[str]] = None):
        super().__init__(node, probe)
        self.build = build
        self.probe = probe
        self.build_key = build_key
        self.probe_key = probe_key
        self.semi = semi
        self.build_payload = build_payload
        self._build_rows: List[np.ndarray] = []
        self._barrier = Barrier(node.sim, num_threads)
        self._built = [False] * num_threads
        #: the build keys in sorted order (None while the side is empty)
        #: and the build columns carried to the output, in that same order.
        self._sorted_keys: Optional[np.ndarray] = None
        self._payload: List[Tuple[str, np.ndarray]] = []

    # -- build phase ---------------------------------------------------------

    def _build_phase(self, tid: int):
        while True:
            state, batch = yield from self.build.next(tid)
            if batch is not None and len(batch):
                yield self.per_tuple_cost(len(batch),
                                          ns_per_tuple=BUILD_NS_PER_TUPLE)
                # No thread can interleave with an append that has no
                # yield inside it, so it needs no lock.
                self._build_rows.append(batch)
            if state == OPS_DEPLETED:
                break
        yield self._barrier.arrive()
        # Thread 0 finalizes the table; everyone else waits at a second
        # barrier so probes never see a half-built table.
        if tid == 0:
            self._finalize_table()
        yield self._barrier.arrive()

    def _finalize_table(self) -> None:
        array = concat_batches(self._build_rows)
        self._build_rows = []
        if array is None:
            return
        keys = self.column(array, self.build_key, "build_key")
        names = list(array.dtype.names)
        # The columns carried to the output: the requested payload, or
        # everything except the (redundant) build key.
        payload = (self.build_payload if self.build_payload is not None
                   else [c for c in names if c != self.build_key])
        missing = [c for c in payload if c not in names]
        if missing:
            raise ValueError(
                f"{type(self).__name__}: build_payload columns {missing} "
                f"are not on the build side (columns: {names})")
        # A stable sort keeps equal keys in insertion order, which is the
        # order their matches are emitted in.
        order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[order]
        if not self.semi:
            self._payload = [(c, array[c][order]) for c in payload]

    # -- probe phase -----------------------------------------------------------

    def next(self, tid: int):
        if not self._built[tid]:
            yield from self._build_phase(tid)
            self._built[tid] = True
        while True:
            state, batch = yield from self.probe.next(tid)
            if batch is None or not len(batch):
                if state == OPS_DEPLETED:
                    return (OPS_DEPLETED, None)
                continue
            yield self.per_tuple_cost(len(batch),
                                      ns_per_tuple=PROBE_NS_PER_TUPLE)
            joined = self._probe_batch(batch)
            if joined is not None or state == OPS_DEPLETED:
                return (state, joined)

    def _probe_batch(self, batch: np.ndarray) -> Optional[np.ndarray]:
        """Matches in probe-row order, then build insertion order."""
        keys = self.column(batch, self.probe_key, "probe_key")
        if self._sorted_keys is None:
            return None
        lo = np.searchsorted(self._sorted_keys, keys, side="left")
        hi = np.searchsorted(self._sorted_keys, keys, side="right")
        counts = hi - lo
        if self.semi:
            kept = batch[counts > 0]
            return kept if len(kept) else None
        ends = np.cumsum(counts)
        total = int(ends[-1])
        if not total:
            return None
        probe_idx = np.repeat(np.arange(len(keys)), counts)
        if not self._payload:
            return batch[probe_idx]
        # Where each match sits in the sorted build side: the start of
        # its key's run plus its rank within the run.
        match = np.arange(total) + np.repeat(lo - (ends - counts), counts)
        return pack_columns(
            [(c, batch[c][probe_idx]) for c in batch.dtype.names]
            + [(c, values[match]) for c, values in self._payload])
