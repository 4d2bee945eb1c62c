"""Deterministic TPC-H data generator.

Follows the TPC-H cardinalities (per scale factor SF: 150 000·SF
customers, 1 500 000·SF orders, 1–7 lineitems per order) and the value
distributions that the Q3/Q4/Q10 predicates select on.  Tuples of every
table are scattered to a uniformly random node, except NATION which is
replicated to all nodes (§5.2) — REGION is not touched by these queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.tpch.schema import (
    CUSTOMER_DTYPE,
    LINEITEM_DTYPE,
    NATION_DTYPE,
    NATIONS,
    ORDERS_DTYPE,
    date_to_days,
)

__all__ = ["TPCHData", "generate"]

#: latest o_orderdate: ENDDATE - 151 days per the TPC-H spec.
_MAX_ORDERDATE = date_to_days(1998, 8, 2)


@dataclass
class TPCHData:
    """One generated database: whole tables plus per-node partitions."""

    scale_factor: float
    num_nodes: int
    customer: np.ndarray
    orders: np.ndarray
    lineitem: np.ndarray
    nation: np.ndarray
    #: per-node random partitions, table name -> list of arrays.
    partitions: Dict[str, List[np.ndarray]] = field(default_factory=dict)

    def partition(self, table: str, node: int) -> np.ndarray:
        return self.partitions[table][node]


def _scatter(rng: np.random.Generator, table: np.ndarray,
             num_nodes: int) -> List[np.ndarray]:
    """Distribute each tuple to a uniformly random node (§5.2)."""
    assignment = rng.integers(0, num_nodes, len(table))
    return [table[assignment == node] for node in range(num_nodes)]


def generate(scale_factor: float, num_nodes: int, seed: int = 2017,
             copartition: bool = False) -> TPCHData:
    """Generate a TPC-H database and scatter it across ``num_nodes``.

    ``copartition=True`` instead places orders and lineitem rows by
    ``hash(orderkey) % n`` and customers by ``hash(custkey) % n`` — the
    "local data" layout of §5.2.1 where Q4 needs no shuffling.
    """
    if scale_factor <= 0:
        raise ValueError(f"scale factor must be positive: {scale_factor}")
    rng = np.random.default_rng(seed)

    n_customer = max(1, int(150_000 * scale_factor))
    n_orders = max(1, int(1_500_000 * scale_factor))

    customer = np.empty(n_customer, dtype=CUSTOMER_DTYPE)
    customer["c_custkey"] = np.arange(1, n_customer + 1)
    customer["c_mktsegment"] = rng.integers(0, 5, n_customer)
    customer["c_nationkey"] = rng.integers(0, len(NATIONS), n_customer)
    customer["c_acctbal"] = rng.uniform(-999.99, 9999.99, n_customer)

    orders = np.empty(n_orders, dtype=ORDERS_DTYPE)
    orders["o_orderkey"] = np.arange(1, n_orders + 1) * 4  # sparse keys
    # TPC-H: only two thirds of customers ever place orders.
    eligible = max(1, (n_customer * 2) // 3)
    orders["o_custkey"] = rng.integers(1, eligible + 1, n_orders)
    orders["o_orderdate"] = rng.integers(0, _MAX_ORDERDATE + 1, n_orders)
    orders["o_orderpriority"] = rng.integers(0, 5, n_orders)
    orders["o_shippriority"] = 0

    counts = rng.integers(1, 8, n_orders)  # 1..7 lineitems per order
    n_lineitem = int(counts.sum())
    lineitem = np.empty(n_lineitem, dtype=LINEITEM_DTYPE)
    lineitem["l_orderkey"] = np.repeat(orders["o_orderkey"], counts)
    odate = np.repeat(orders["o_orderdate"], counts).astype(np.int64)
    lineitem["l_shipdate"] = odate + rng.integers(1, 122, n_lineitem)
    lineitem["l_commitdate"] = odate + rng.integers(30, 91, n_lineitem)
    lineitem["l_receiptdate"] = (
        lineitem["l_shipdate"] + rng.integers(1, 31, n_lineitem))
    lineitem["l_extendedprice"] = rng.uniform(900.0, 105_000.0, n_lineitem)
    lineitem["l_discount"] = rng.integers(0, 11, n_lineitem) / 100.0
    lineitem["l_returnflag"] = rng.integers(0, 3, n_lineitem)
    # Items received after the "current date" window lean to R (returned).

    nation = np.empty(len(NATIONS), dtype=NATION_DTYPE)
    nation["n_nationkey"] = np.arange(len(NATIONS))

    data = TPCHData(scale_factor=scale_factor, num_nodes=num_nodes,
                    customer=customer, orders=orders, lineitem=lineitem,
                    nation=nation)
    if copartition:
        data.partitions = {
            "customer": [customer[customer["c_custkey"] % num_nodes == i]
                         for i in range(num_nodes)],
            "orders": [orders[orders["o_orderkey"] % num_nodes == i]
                       for i in range(num_nodes)],
            "lineitem": [lineitem[lineitem["l_orderkey"] % num_nodes == i]
                         for i in range(num_nodes)],
        }
    else:
        data.partitions = {
            "customer": _scatter(rng, customer, num_nodes),
            "orders": _scatter(rng, orders, num_nodes),
            "lineitem": _scatter(rng, lineitem, num_nodes),
        }
    # NATION is tiny (25 rows) and replicated to every node.
    data.partitions["nation"] = [nation] * num_nodes
    # Read-only: in-flight messages hold views of the partitions, so a
    # write must raise rather than change tuples already on the wire.
    for array in (customer, orders, lineitem, nation):
        array.flags.writeable = False
    for parts in data.partitions.values():
        for array in parts:
            array.flags.writeable = False
    return data
