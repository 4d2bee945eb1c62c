"""A vectorized, pull-based parallel query engine (the Pythia stand-in).

Operators implement the Volcano-style NEXT interface, vectorized to return
a batch of tuples per call and parallelized by passing a thread id (§2.1,
Figure 1).  Worker threads are simulation processes; CPU work is charged
in simulated nanoseconds through the cluster's cost model, which is what
lets the simulation reproduce compute/communication overlap effects
(Figs 13 and 14).
"""

from repro.engine.operator import (
    Operator,
    OpState,
    batch_nbytes,
    concat_batches,
)
from repro.engine.scan import ScanOperator
from repro.engine.filter import FilterOperator
from repro.engine.project import ProjectOperator
from repro.engine.join import HashJoinOperator
from repro.engine.aggregate import HashAggregateOperator
from repro.engine.compute import ComputeOperator
from repro.engine.fragment import QueryFragment, CollectSink, run_fragments

__all__ = [
    "CollectSink",
    "ComputeOperator",
    "FilterOperator",
    "HashAggregateOperator",
    "HashJoinOperator",
    "Operator",
    "OpState",
    "ProjectOperator",
    "QueryFragment",
    "ScanOperator",
    "batch_nbytes",
    "concat_batches",
    "run_fragments",
]
