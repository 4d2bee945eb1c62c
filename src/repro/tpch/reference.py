"""Single-node reference implementations of Q3, Q4 and Q10.

Pure-numpy computations over the whole (unpartitioned) tables; the
distributed plans in :mod:`repro.tpch.queries` must produce identical
answers.  Results are dictionaries keyed by group, with float aggregates.
Each query gathers single columns at the rows its predicates keep, never
whole rows: the cheapest predicate runs first, and ``np.isin`` and
``tolist`` run on its survivors only.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.tpch.datagen import TPCHData
from repro.tpch.schema import MKT_SEGMENTS, RETURN_FLAGS, date_to_days

__all__ = ["reference_answer", "Q3_PARAMS", "Q4_PARAMS", "Q10_PARAMS"]

#: Q3: BUILDING segment, cutoff date 1995-03-15.
Q3_PARAMS = {
    "segment": MKT_SEGMENTS.index("BUILDING"),
    "date": date_to_days(1995, 3, 15),
}
#: Q4: quarter starting 1993-07-01.
Q4_PARAMS = {
    "date_lo": date_to_days(1993, 7, 1),
    "date_hi": date_to_days(1993, 10, 1),
}
#: Q10: quarter starting 1993-10-01, returned items only.
Q10_PARAMS = {
    "date_lo": date_to_days(1993, 10, 1),
    "date_hi": date_to_days(1994, 1, 1),
    "returnflag": RETURN_FLAGS.index("R"),
}


def _q4(data: TPCHData) -> Dict[int, float]:
    orders = data.orders
    lineitem = data.lineitem
    odate = orders["o_orderdate"]
    sel = np.flatnonzero((odate >= Q4_PARAMS["date_lo"]) &
                         (odate < Q4_PARAMS["date_hi"]))
    late = lineitem["l_commitdate"] < lineitem["l_receiptdate"]
    late_orders = np.unique(lineitem["l_orderkey"][late])
    sel = sel[np.isin(orders["o_orderkey"][sel], late_orders)]
    prios, counts = np.unique(orders["o_orderpriority"][sel],
                              return_counts=True)
    return {int(prio): float(count)
            for prio, count in zip(prios.tolist(), counts.tolist())}


def _revenue(lineitem: np.ndarray, rows: np.ndarray) -> np.ndarray:
    return (lineitem["l_extendedprice"][rows] *
            (1.0 - lineitem["l_discount"][rows]))


def _q3(data: TPCHData) -> Dict[Tuple[int, int, int], float]:
    cust = data.customer
    orders = data.orders
    lineitem = data.lineitem
    custkeys = cust["c_custkey"][cust["c_mktsegment"] == Q3_PARAMS["segment"]]
    osel = np.flatnonzero(orders["o_orderdate"] < Q3_PARAMS["date"])
    osel = osel[np.isin(orders["o_custkey"][osel], custkeys)]
    okeys = orders["o_orderkey"][osel]
    lsel = np.flatnonzero(lineitem["l_shipdate"] > Q3_PARAMS["date"])
    lsel = lsel[np.isin(lineitem["l_orderkey"][lsel], okeys)]
    odate = dict(zip(okeys.tolist(), orders["o_orderdate"][osel].tolist()))
    out: Dict[Tuple[int, int, int], float] = {}
    for key, rev in zip(lineitem["l_orderkey"][lsel].tolist(),
                        _revenue(lineitem, lsel).tolist()):
        group = (key, odate[key], 0)
        out[group] = out.get(group, 0.0) + rev
    return out


def _q10(data: TPCHData) -> Dict[Tuple[int, int], float]:
    cust = data.customer
    orders = data.orders
    lineitem = data.lineitem
    odate = orders["o_orderdate"]
    osel = np.flatnonzero((odate >= Q10_PARAMS["date_lo"]) &
                          (odate < Q10_PARAMS["date_hi"]))
    okeys = orders["o_orderkey"][osel]
    ocustkeys = orders["o_custkey"][osel]
    lsel = np.flatnonzero(
        lineitem["l_returnflag"] == Q10_PARAMS["returnflag"])
    lsel = lsel[np.isin(lineitem["l_orderkey"][lsel], okeys)]
    csel = np.flatnonzero(np.isin(cust["c_custkey"], ocustkeys))
    ocust = dict(zip(okeys.tolist(), ocustkeys.tolist()))
    nation_of = dict(zip(cust["c_custkey"][csel].tolist(),
                         cust["c_nationkey"][csel].tolist()))
    out: Dict[Tuple[int, int], float] = {}
    for okey, rev in zip(lineitem["l_orderkey"][lsel].tolist(),
                         _revenue(lineitem, lsel).tolist()):
        custkey = ocust[okey]
        group = (custkey, nation_of[custkey])
        out[group] = out.get(group, 0.0) + rev
    return out


def reference_answer(query: str, data: TPCHData):
    """Compute the reference answer for "Q3", "Q4" or "Q10"."""
    impl = {"Q3": _q3, "Q4": _q4, "Q10": _q10}
    try:
        return impl[query](data)
    except KeyError:
        raise ValueError(f"unknown query {query!r}; pick Q3, Q4 or Q10") from None
