"""Deterministic TPC-H data generator.

Follows the TPC-H cardinalities (per scale factor SF: 150 000·SF
customers, 1 500 000·SF orders, 1–7 lineitems per order) and the value
distributions that the Q3/Q4/Q10 predicates select on.  Tuples of every
table are scattered to a uniformly random node, except NATION which is
replicated to all nodes (§5.2) — REGION is not touched by these queries.
Each table is held once, grouped by node; a node's partition is a view.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """One generated database: whole tables plus per-node partitions.

    Each table is stored once, its rows grouped by node and in generation
    order within a node; ``partitions[table][node]`` is a slice (a view)
    of it.  ``copartition`` records the layout: ``True`` places rows by
    key modulo ``num_nodes`` (§5.2.1), ``False`` on a random node.
    """

    scale_factor: float
    num_nodes: int
    customer: np.ndarray
    orders: np.ndarray
    lineitem: np.ndarray
    nation: np.ndarray
    copartition: bool
    #: per-node partitions, table name -> list of views of the table.
    partitions: Dict[str, List[np.ndarray]]

    def partition(self, table: str, node: int) -> np.ndarray:
        return self.partitions[table][node]


def _group_by_node(table: np.ndarray, node: np.ndarray,
                   num_nodes: int) -> List[np.ndarray]:
    """Reorder ``table`` in place so node ``n``'s rows (``node == n``)
    are contiguous and keep their order, then freeze it; returns one
    slice per node.

    ``node`` holds small unsigned ints, so the stable argsort is a radix
    sort; the rows move one column at a time, so the table is never
    copied whole."""
    order = np.argsort(node, kind="stable")
    for column in table.dtype.names:
        table[column] = table[column][order]
    # Read-only: in-flight messages hold views of the partitions, so a
    # write must raise rather than change tuples already on the wire.
    # Views taken after this inherit the flag.
    table.flags.writeable = False
    ends = np.cumsum(np.bincount(node, minlength=num_nodes)).tolist()
    return [table[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]


def generate(scale_factor: float, num_nodes: int, seed: int = 2017,
             copartition: bool = False) -> TPCHData:
    """Generate a TPC-H database and scatter it across ``num_nodes``.

    ``copartition=True`` instead places orders and lineitem rows by
    ``hash(orderkey) % n`` and customers by ``hash(custkey) % n`` — the
    "local data" layout of §5.2.1 where Q4 needs no shuffling.
    """
    if scale_factor <= 0:
        raise ValueError(f"scale factor must be positive: {scale_factor}")
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1: {num_nodes}")
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

    # Node ids as the smallest unsigned int that holds them.
    small = np.min_scalar_type(num_nodes - 1)
    partitions = {}
    for name, table, key in (("customer", customer, "c_custkey"),
                             ("orders", orders, "o_orderkey"),
                             ("lineitem", lineitem, "l_orderkey")):
        if copartition:
            node = (table[key] % num_nodes).astype(small)
        else:
            # One uniformly random node per tuple (§5.2).
            node = rng.integers(0, num_nodes, len(table)).astype(small)
        partitions[name] = _group_by_node(table, node, num_nodes)
    # NATION is tiny (25 rows) and replicated to every node.
    nation.flags.writeable = False
    partitions["nation"] = [nation] * num_nodes
    return TPCHData(scale_factor=scale_factor, num_nodes=num_nodes,
                    customer=customer, orders=orders, lineitem=lineitem,
                    nation=nation, copartition=copartition,
                    partitions=partitions)
