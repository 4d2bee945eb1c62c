"""Latency attribution by priority interval sweep (+ critical path).

The analyzer answers one question about a finished shuffle: *where did
the time go?*  Every simulated nanosecond of the analysis window
``[t0, t1)`` is assigned to exactly one of :data:`CATEGORIES`, so the
attribution always conserves: ``sum(categories.values()) == t1 - t0``
holds by construction, not by fixup.

The algorithm is a single sweep over all recorded resource intervals
and endpoint stalls (the pipe and stall rows of
:class:`~repro.telemetry.links.FlowRecorder`, read as int64 columns in
place through ``np.frombuffer``, kinds compared as their codes; the
window's remainder bounds and :func:`critical_path` read the flow rows
the same way).  At any
instant several explanations can be active at once — a QP-cache miss is
being charged on one NIC while a trunk is congested and a sender sits in
a credit stall.  Ranking them would require a full causal closure;
instead we impose a fixed *priority* order (hardware penalties beat wire
time beats protocol stalls) and charge each elementary slice of the
window to the highest-priority explanation active during it:

======================  ====  ==========================================
category                prio  meaning
======================  ====  ==========================================
``qp_cache_miss``        0    NIC QP-context-cache miss penalty (§5.2)
``pcie_stall``           1    payload DMA fetch of a non-inlined Write
``trunk_queueing``       2    switch trunk serialization while congested
``wire_serialization``   3    host-link / uncongested-trunk wire time
``nic_processing``       4    baseline NIC WR processing; the kernel
                              stack is IPoIB's packet processor
``credit_stall``         5    sender blocked on credit (incl. RNR and
                              MPI's rendezvous wait for clear-to-send)
``buffer_stall``         6    sender blocked on a free buffer
======================  ====  ==========================================

Slices during which *nothing* recorded is active fall through to the
remainder categories by position: before the first WR post they are
``setup`` (partitioning, pool registration, connection exchange), after
the last delivery ``receiver_drain`` (completion draining, final
markers), and in between ``sender_compute`` (materializing tuples into
send buffers — the paper's "application time").

Receiver-side ``data-wait`` stalls are recorded but deliberately *not*
swept: a receiver waiting for data is the mirror image of whatever is
slowing the sender down, and charging it would double-count the cause.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.telemetry.links import FlowRecorder

__all__ = ["CATEGORIES", "attribute", "critical_path"]

#: the most links :func:`critical_path` returns (the newest ones).
CRITICAL_PATH_LINKS = 32

#: every attribution category, in report order.  The first seven are
#: explained by recorded intervals (priority = position); the last three
#: are positional remainders.
CATEGORIES = (
    "qp_cache_miss",
    "pcie_stall",
    "trunk_queueing",
    "wire_serialization",
    "nic_processing",
    "credit_stall",
    "buffer_stall",
    "setup",
    "sender_compute",
    "receiver_drain",
)

#: the swept (interval-backed) categories lead CATEGORIES; priority =
#: index, 0 highest.
_NUM_PRIOS = 7

#: endpoint stall kinds that participate in the sweep.  ``data-wait`` is
#: intentionally absent (see module docstring).
_STALL_PRIO = {
    "credit-stall": 5,
    "rnr-stall": 5,
    "rndv-wait": 5,
    "free-wait": 6,
}

#: category index of each positional remainder.
_SETUP, _COMPUTE, _DRAIN = (CATEGORIES.index(name) for name in
                            ("setup", "sender_compute", "receiver_drain"))


def _flow_bounds(recorder: FlowRecorder, t0: int, t1: int):
    """(first WR post, last delivery) clamped into the window.

    With no WR ever posted the whole window is setup work (fig12-style
    connection-establishment runs)."""
    flows = recorder.flows.columns()
    first_post = last_delivery = t1
    if len(flows):
        first_post = int(flows[:, 4].min())
        delivered = int(flows[:, 5].max())
        if delivered >= 0:
            last_delivery = delivered
    return (max(t0, min(first_post, t1)),
            max(t0, min(last_delivery, t1)))


def _intervals(recorder: FlowRecorder) -> np.ndarray:
    """Rows ``start, end, prio`` of every interval the sweep charges.

    A pipe record charges its base part (wire, trunk or NIC processing
    time), then its QP-cache-miss penalty, then its payload-fetch extra,
    back to back; a stall charges its whole duration."""
    codes = recorder.codes
    parts = [np.zeros((3, 0), dtype=np.int64)]
    pipes = recorder.pipes.columns()
    if len(pipes):
        kind = pipes[:, 0]
        start, base, penalty, extra, waited = pipes[:, 2:7].T
        base_end = start + base
        penalty_end = base_end + penalty
        # A trunk hop that queued at least its own serialization time is
        # congestion; otherwise it is plain wire time, like the links.
        base_prio = np.where(
            np.isin(kind, [codes.get(name, -1) for name in
                           ("proc", "stack.tx", "stack.rx")]), 4,
            np.where((kind == codes.get("trunk", -1)) & (waited >= base),
                     2, 3))
        parts += [np.stack((start, base_end, base_prio)),
                  np.stack((base_end, penalty_end, np.zeros_like(start))),
                  np.stack((penalty_end, penalty_end + extra,
                            np.ones_like(start)))]
    stalls = recorder.stalls.columns()
    if len(stalls):
        prio_of = np.array([_STALL_PRIO.get(name, -1) for name in codes.names],
                           dtype=np.int64)
        prio = prio_of[stalls[:, 2]]
        swept = prio >= 0
        start = stalls[swept, 3]
        parts.append(np.stack((start, start + stalls[swept, 4],
                               prio[swept])))
    return np.concatenate(parts, axis=1)


def attribute(recorder: FlowRecorder, t0: int, t1: int) -> Dict[str, Any]:
    """Partition ``[t0, t1)`` into the :data:`CATEGORIES`.

    Returns ``{"t0", "t1", "total_ns", "categories", "shares", "top",
    "conserved"}``.  ``conserved`` is asserted by tests; it can only be
    False if this function has a bug, because the sweep charges each
    elementary slice exactly once.
    """
    if t1 < t0:
        raise ValueError(f"empty attribution window [{t0}, {t1})")
    total = t1 - t0
    first_post, last_delivery = _flow_bounds(recorder, t0, t1)

    # -- clip every interval into the window ----------------------------
    start, end, prio = _intervals(recorder)
    start = np.maximum(start, t0)
    end = np.minimum(end, t1)
    live = end > start
    start, end, prio = start[live], end[live], prio[live]

    # -- the sweep ------------------------------------------------------
    # Elementary slices run between consecutive distinct boundaries:
    # every interval end, the window ends and the two remainder changes
    # (so no slice straddles one; the bounds are clamped into the
    # window).  A slice sees the intervals opened, and not yet closed,
    # at or before its start.
    bounds = np.array((t0, first_post, last_delivery, t1), dtype=np.int64)
    times = np.concatenate((start, end, bounds))
    order = np.argsort(times)
    times = times[order]
    last = np.flatnonzero(np.append(times[1:] != times[:-1], True))
    edges = times[last]
    begin = edges[:-1]
    width = np.diff(edges)

    # Each slice goes to the highest-priority explanation active in it,
    # or else to the remainder its position names.
    category = np.where(begin < first_post, _SETUP,
                        np.where(begin >= last_delivery, _DRAIN, _COMPUTE))
    no_bounds = np.zeros(len(bounds), dtype=np.int64)
    for level in range(_NUM_PRIOS - 1, -1, -1):
        opened = (prio == level).astype(np.int64)
        delta = np.concatenate((opened, -opened, no_bounds))[order]
        category[np.cumsum(delta)[last][:-1] > 0] = level
    totals = np.zeros(len(CATEGORIES), dtype=np.int64)
    np.add.at(totals, category, width)
    categories = {name: int(ns) for name, ns in zip(CATEGORIES, totals)}

    explained = sum(categories.values())
    shares = {
        name: (ns / total if total else 0.0)
        for name, ns in categories.items()
    }
    top = max(CATEGORIES, key=lambda name: categories[name])
    return {
        "t0": t0,
        "t1": t1,
        "total_ns": total,
        "categories": categories,
        "shares": shares,
        "top": top,
        "conserved": explained == total,
    }


def critical_path(recorder: FlowRecorder) -> List[Dict[str, Any]]:
    """The causal chain ending at the last delivered message, at most
    :data:`CRITICAL_PATH_LINKS` links long.

    Walks the flow DAG backwards from the final delivery, preferring the
    cross-endpoint ``trigger`` edge (credit return -> the data flow whose
    release produced it) over the same-QP FIFO ``prev`` edge, and returns
    the chain oldest-first.  This is the message-level skeleton of the
    run's critical path; the attribution above explains the time *between*
    its links.
    """
    flows = recorder.flows.columns()
    chain: List[Dict[str, Any]] = []
    if not len(flows) or flows[:, 5].max() < 0:
        return chain
    names = recorder.codes.names
    seen = set()
    # argmax takes the first of equal delivery times, in id order.
    cursor = int(flows[:, 5].argmax()) + 1
    while (0 < cursor <= len(flows) and cursor not in seen
           and len(chain) < CRITICAL_PATH_LINKS):
        seen.add(cursor)
        kind, src, dst, size, posted, delivered, prev, trigger = (
            flows[cursor - 1].tolist())
        chain.append({
            "flow": cursor,
            "kind": names[kind],
            "src": src,
            "dst": dst,
            "size": size,
            "posted_ns": posted,
            "delivered_ns": None if delivered < 0 else delivered,
            "edge": "trigger" if trigger else "prev",
        })
        cursor = trigger or prev
    chain.reverse()
    return chain
