"""Distributed TPC-H query plans (§5.2).

Plans were hand-derived the way a commercial optimizer lays them out for
randomly-scattered tables: filter early, shuffle build and probe sides on
the join key, join, re-shuffle intermediate results for the next join,
aggregate partially, and gather partial aggregates on a coordinator.

``local_data=True`` builds the §5.2.1 "local data" variant: tables are
co-partitioned so joins run locally and only the (tiny) partial
aggregates are gathered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cluster import Cluster
from repro.core.groups import TransmissionGroups
from repro.core.policy import DesignLike, StageContext, resolve_plan
from repro.core.receive import ReceiveOperator
from repro.core.shuffle import ShuffleOperator, hash_partitioner
from repro.core.stage import ShuffleStage
from repro.engine.aggregate import HashAggregateOperator
from repro.engine.filter import FilterOperator
from repro.engine.fragment import CollectSink, QueryFragment, run_fragments
from repro.engine.join import HashJoinOperator
from repro.engine.map import MapOperator
from repro.engine.operator import pack_columns
from repro.engine.project import ProjectOperator
from repro.engine.scan import ScanOperator
from repro.tpch.datagen import TPCHData
from repro.tpch.reference import Q3_PARAMS, Q4_PARAMS, Q10_PARAMS

__all__ = ["QueryResult", "run_query"]


@dataclass
class QueryResult:
    """Outcome of one distributed query execution."""

    query: str
    design: str
    num_nodes: int
    #: answer as a dict: group key (int or tuple) -> aggregate value.
    answer: Dict
    #: wall-clock simulated time of the execution phase.
    response_time_ns: int
    #: connection build + registration time (reported separately, §5.1.5).
    setup_ns: int

    def response_time_ms(self) -> float:
        return self.response_time_ns / 1e6


class _PlanContext:
    """Carries everything the per-query builders need."""

    def __init__(self, cluster: Cluster, design: DesignLike, data: TPCHData,
                 local_data: bool):
        self.cluster = cluster
        self.data = data
        #: the one plan every stage of the query runs.
        self.plan = resolve_plan(design, StageContext.from_cluster(cluster))
        self.local_data = local_data
        self.threads = cluster.threads_per_node
        self.n = cluster.num_nodes
        self.stages: List[ShuffleStage] = []
        self.fragments: List[QueryFragment] = []
        self.sink = CollectSink()

    # -- stage/operator helpers ------------------------------------------------

    def make_stage(self, groups) -> ShuffleStage:
        stage = self.cluster.shuffle_stage(self.plan, groups)
        self.stages.append(stage)
        return stage

    def repartition_stage(self) -> ShuffleStage:
        return self.make_stage(TransmissionGroups.repartition(self.n))

    def gather_stage(self) -> ShuffleStage:
        return self.make_stage(TransmissionGroups([(0,)]))

    def scan(self, table: str, node_id: int) -> ScanOperator:
        node = self.cluster.nodes[node_id]
        return ScanOperator(node, self.data.partition(table, node_id),
                            self.threads)

    def shuffle_to(self, stage: ShuffleStage, node_id: int, child,
                   key_column: Optional[str]) -> ShuffleOperator:
        node = self.cluster.nodes[node_id]
        if key_column is None:
            partition = lambda batch: 0  # noqa: E731 - gather everything
        else:
            partition = hash_partitioner(
                lambda b, c=key_column: b[c],
                stage.groups_for[node_id].num_groups)
        return ShuffleOperator(node, child, stage.send_endpoints[node_id],
                               stage.groups_for[node_id], partition,
                               self.threads)

    def receive_from(self, stage: ShuffleStage, node_id: int) -> ReceiveOperator:
        node = self.cluster.nodes[node_id]
        return ReceiveOperator(node, stage.recv_endpoints[node_id],
                               self.threads)

    def add_fragment(self, node_id: int, root, sink=None, name: str = ""):
        node = self.cluster.nodes[node_id]
        self.fragments.append(QueryFragment(node, root, self.threads,
                                            sink=sink, name=name))

    def finalize(self, gather: ShuffleStage, group_cols, aggs) -> None:
        """The coordinator fragment: final aggregation over partials."""
        node0 = self.cluster.nodes[0]
        final = HashAggregateOperator(
            node0, self.receive_from(gather, 0), group_cols, aggs,
            self.threads)
        self.add_fragment(0, final, sink=self.sink, name="coordinator")


def _revenue(batch: np.ndarray) -> np.ndarray:
    revenue = batch["l_extendedprice"] * (1.0 - batch["l_discount"])
    return pack_columns([(c, batch[c]) for c in batch.dtype.names]
                        + [("revenue", revenue)])


# -- Q4 -------------------------------------------------------------------------


def _build_q4(ctx: _PlanContext) -> None:
    """Q4: priority counts of orders with at least one late lineitem."""
    gather = ctx.gather_stage()
    if not ctx.local_data:
        li_stage = ctx.repartition_stage()
        or_stage = ctx.repartition_stage()
    for node_id in range(ctx.n):
        node = ctx.cluster.nodes[node_id]
        late_li = ProjectOperator(node, FilterOperator(
            node, ctx.scan("lineitem", node_id),
            lambda b: b["l_commitdate"] < b["l_receiptdate"]),
            ["l_orderkey"])
        sel_orders = ProjectOperator(node, FilterOperator(
            node, ctx.scan("orders", node_id),
            lambda b: ((b["o_orderdate"] >= Q4_PARAMS["date_lo"]) &
                       (b["o_orderdate"] < Q4_PARAMS["date_hi"]))),
            ["o_orderkey", "o_orderpriority"])
        if ctx.local_data:
            build, probe = late_li, sel_orders
        else:
            ctx.add_fragment(node_id, ctx.shuffle_to(
                li_stage, node_id, late_li, "l_orderkey"))
            ctx.add_fragment(node_id, ctx.shuffle_to(
                or_stage, node_id, sel_orders, "o_orderkey"))
            build = ctx.receive_from(li_stage, node_id)
            probe = ctx.receive_from(or_stage, node_id)
        exists = HashJoinOperator(node, build, probe,
                                  build_key="l_orderkey",
                                  probe_key="o_orderkey",
                                  num_threads=ctx.threads, semi=True)
        partial = HashAggregateOperator(
            node, exists, ["o_orderpriority"],
            [("count", None, "order_count")], ctx.threads)
        ctx.add_fragment(node_id, ctx.shuffle_to(gather, node_id, partial,
                                                 None))
    ctx.finalize(gather, ["o_orderpriority"],
                 [("sum", "order_count", "order_count")])


def _q4_answer(batch: Optional[np.ndarray]) -> Dict:
    if batch is None:
        return {}
    return dict(zip(batch["o_orderpriority"].tolist(),
                    batch["order_count"].tolist()))


# -- Q3 -------------------------------------------------------------------------


def _build_q3(ctx: _PlanContext) -> None:
    """Q3: revenue of unshipped orders for one market segment."""
    gather = ctx.gather_stage()
    c_stage = ctx.repartition_stage()
    o_stage = ctx.repartition_stage()
    oc_stage = ctx.repartition_stage()
    l_stage = ctx.repartition_stage()
    for node_id in range(ctx.n):
        node = ctx.cluster.nodes[node_id]
        cust = ProjectOperator(node, FilterOperator(
            node, ctx.scan("customer", node_id),
            lambda b: b["c_mktsegment"] == Q3_PARAMS["segment"]),
            ["c_custkey"])
        orders = ProjectOperator(node, FilterOperator(
            node, ctx.scan("orders", node_id),
            lambda b: b["o_orderdate"] < Q3_PARAMS["date"]),
            ["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"])
        ctx.add_fragment(node_id, ctx.shuffle_to(
            c_stage, node_id, cust, "c_custkey"))
        ctx.add_fragment(node_id, ctx.shuffle_to(
            o_stage, node_id, orders, "o_custkey"))
        # customer ⋈ orders on custkey (customer is a pure filter here).
        join_co = HashJoinOperator(
            node, ctx.receive_from(c_stage, node_id),
            ctx.receive_from(o_stage, node_id),
            build_key="c_custkey", probe_key="o_custkey",
            num_threads=ctx.threads, build_payload=[])
        ctx.add_fragment(node_id, ctx.shuffle_to(
            oc_stage, node_id, join_co, "o_orderkey"))
        lineitem = ProjectOperator(node, FilterOperator(
            node, ctx.scan("lineitem", node_id),
            lambda b: b["l_shipdate"] > Q3_PARAMS["date"]),
            ["l_orderkey", "l_extendedprice", "l_discount"])
        ctx.add_fragment(node_id, ctx.shuffle_to(
            l_stage, node_id, lineitem, "l_orderkey"))
        join_col = HashJoinOperator(
            node, ctx.receive_from(oc_stage, node_id),
            ctx.receive_from(l_stage, node_id),
            build_key="o_orderkey", probe_key="l_orderkey",
            num_threads=ctx.threads,
            build_payload=["o_orderdate", "o_shippriority"])
        partial = HashAggregateOperator(
            node, MapOperator(node, join_col, _revenue),
            ["l_orderkey", "o_orderdate", "o_shippriority"],
            [("sum", "revenue", "revenue")], ctx.threads)
        ctx.add_fragment(node_id, ctx.shuffle_to(gather, node_id, partial,
                                                 None))
    ctx.finalize(gather, ["l_orderkey", "o_orderdate", "o_shippriority"],
                 [("sum", "revenue", "revenue")])


def _q3_answer(batch: Optional[np.ndarray]) -> Dict:
    if batch is None:
        return {}
    return dict(zip(zip(batch["l_orderkey"].tolist(),
                        batch["o_orderdate"].tolist(),
                        batch["o_shippriority"].tolist()),
                    batch["revenue"].tolist()))


# -- Q10 ------------------------------------------------------------------------


def _build_q10(ctx: _PlanContext) -> None:
    """Q10: revenue lost to returned items, per customer (+ nation)."""
    gather = ctx.gather_stage()
    o_stage = ctx.repartition_stage()
    l_stage = ctx.repartition_stage()
    cu_stage = ctx.repartition_stage()
    c_stage = ctx.repartition_stage()
    for node_id in range(ctx.n):
        node = ctx.cluster.nodes[node_id]
        orders = ProjectOperator(node, FilterOperator(
            node, ctx.scan("orders", node_id),
            lambda b: ((b["o_orderdate"] >= Q10_PARAMS["date_lo"]) &
                       (b["o_orderdate"] < Q10_PARAMS["date_hi"]))),
            ["o_orderkey", "o_custkey"])
        lineitem = ProjectOperator(node, FilterOperator(
            node, ctx.scan("lineitem", node_id),
            lambda b: b["l_returnflag"] == Q10_PARAMS["returnflag"]),
            ["l_orderkey", "l_extendedprice", "l_discount"])
        ctx.add_fragment(node_id, ctx.shuffle_to(
            o_stage, node_id, orders, "o_orderkey"))
        ctx.add_fragment(node_id, ctx.shuffle_to(
            l_stage, node_id, lineitem, "l_orderkey"))
        join_ol = HashJoinOperator(
            node, ctx.receive_from(o_stage, node_id),
            ctx.receive_from(l_stage, node_id),
            build_key="o_orderkey", probe_key="l_orderkey",
            num_threads=ctx.threads, build_payload=["o_custkey"])
        partial_cust = HashAggregateOperator(
            node, MapOperator(node, join_ol, _revenue),
            ["o_custkey"], [("sum", "revenue", "revenue")], ctx.threads)
        ctx.add_fragment(node_id, ctx.shuffle_to(
            cu_stage, node_id, partial_cust, "o_custkey"))
        cust = ProjectOperator(
            node, ctx.scan("customer", node_id),
            ["c_custkey", "c_nationkey"])
        ctx.add_fragment(node_id, ctx.shuffle_to(
            c_stage, node_id, cust, "c_custkey"))
        join_c = HashJoinOperator(
            node, ctx.receive_from(c_stage, node_id),
            ctx.receive_from(cu_stage, node_id),
            build_key="c_custkey", probe_key="o_custkey",
            num_threads=ctx.threads, build_payload=["c_nationkey"])
        # NATION is replicated: the final join runs locally (§5.2).
        join_n = HashJoinOperator(
            node, ctx.scan("nation", node_id), join_c,
            build_key="n_nationkey", probe_key="c_nationkey",
            num_threads=ctx.threads, semi=True)
        partial = HashAggregateOperator(
            node, join_n, ["o_custkey", "c_nationkey"],
            [("sum", "revenue", "revenue")], ctx.threads)
        ctx.add_fragment(node_id, ctx.shuffle_to(gather, node_id, partial,
                                                 None))
    ctx.finalize(gather, ["o_custkey", "c_nationkey"],
                 [("sum", "revenue", "revenue")])


def _q10_answer(batch: Optional[np.ndarray]) -> Dict:
    if batch is None:
        return {}
    return dict(zip(zip(batch["o_custkey"].tolist(),
                        batch["c_nationkey"].tolist()),
                    batch["revenue"].tolist()))


_BUILDERS = {
    "Q3": (_build_q3, _q3_answer),
    "Q4": (_build_q4, _q4_answer),
    "Q10": (_build_q10, _q10_answer),
}


def run_query(cluster: Cluster, query: str, data: TPCHData,
              design: DesignLike = "MESQ/SR",
              local_data: bool = False) -> QueryResult:
    """Execute one TPC-H query on a simulated cluster.

    ``data`` must be generated for ``cluster.num_nodes`` nodes.
    ``local_data=True`` requires ``data`` generated with
    ``copartition=True`` and is only meaningful for Q4 (Q3/Q10 join on
    different attributes, making co-partitioning impossible, §5.2.2).
    """
    if query not in _BUILDERS:
        raise ValueError(f"unknown query {query!r}; pick Q3, Q4 or Q10")
    if local_data and query != "Q4":
        raise ValueError("the local-data plan exists only for Q4 (§5.2.2)")
    if data.num_nodes != cluster.num_nodes:
        raise ValueError(
            f"the data was generated for {data.num_nodes} nodes but the "
            f"cluster has {cluster.num_nodes}")
    if local_data and not data.copartition:
        raise ValueError("the local-data plan needs data generated with "
                         "copartition=True")
    builder, extract = _BUILDERS[query]
    ctx = _PlanContext(cluster, design, data, local_data)
    builder(ctx)
    setup_ns = 0
    for stage in ctx.stages:
        cluster.run_process(stage.setup(), name="tpch-stage-setup")
        setup_ns += stage.max_setup_ns
    elapsed = cluster.run_process(
        run_fragments(cluster.sim, ctx.fragments), name=f"tpch-{query}")
    return QueryResult(
        query=query, design=ctx.plan.design.name,
        num_nodes=cluster.num_nodes,
        answer=extract(ctx.sink.result()), response_time_ns=elapsed,
        setup_ns=setup_ns,
    )
