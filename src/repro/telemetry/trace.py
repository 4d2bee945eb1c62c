"""Simulated-time tracing with Chrome trace-event JSON export.

The :class:`Tracer` records spans and instants stamped in **simulated
nanoseconds** and exports the Chrome trace-event format, loadable in
``chrome://tracing`` or https://ui.perfetto.dev.  The mapping follows the
hardware structure of the simulation:

* one trace **process** (pid) per cluster node, plus one pseudo-process
  per switch of the fabric topology (pid ``num_nodes + switch_index``),
* one trace **thread** (tid) per serialized resource on that node — a QP,
  an endpoint, a NIC pipe (``egress``/``ingress``/``nicproc``), or a
  switch trunk port.

Two span styles are used deliberately:

* resources that are serial by construction (the NIC's FIFO
  :class:`~repro.sim.primitives.RatePipe` pipes) emit paired ``B``/``E``
  events with explicit timestamps — their occupancy intervals never
  overlap, so the begin/end stack discipline always holds;
* everything else (per-message verbs state machines, endpoint stalls,
  where operations on one track interleave freely) emits ``X``
  *complete* events carrying their own duration.

Each call appends one fixed-width row of four int64 fields to one flat
``array("q")``: ``series, ts_ns, dur_or_end_ns, args``.  ``series``
names the call's ``(ph, pid, tid, name, cat)``, interned on first use,
so a row costs 32 bytes however long its strings; ``ph`` ``"B"`` is a
whole span.  ``args`` is ``-1`` for none, ``n >= 0`` for a byte count
(rendered ``{"bytes": n}``) and ``-2 - i`` for the ``i``-th recorded
dict.  The Chrome dicts are built only when :attr:`Tracer.events` is
iterated.

A shared :class:`TraceBudget` bounds the total event count across every
tracer of a session, so ``repro-bench --trace`` on a full-scale figure
produces a file a browser can still open; once exhausted, further events
are counted as dropped, not recorded.  A span counts as two events.
"""

from __future__ import annotations

import json
import struct
from array import array
from typing import (TYPE_CHECKING, Any, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulator

__all__ = ["TraceBudget", "Tracer", "trace_document"]


class TraceBudget:
    """A shared cap on recorded events (one per session, many tracers)."""

    __slots__ = ("remaining", "dropped")

    def __init__(self, max_events: int = 500_000):
        self.remaining = max_events
        self.dropped = 0

    def take(self, count: int = 1) -> bool:
        """Reserve ``count`` events atomically (all or none)."""
        if self.remaining >= count:
            self.remaining -= count
            return True
        self.dropped += count
        return False


#: int64 fields per tracer row: series, ts_ns, dur_or_end_ns, args.
_WIDTH = 4
#: one row as bytes: ``rows.frombytes(_row(...))`` appends it in one call.
_row = struct.Struct(f"{_WIDTH}q").pack


class TraceEvents:
    """A tracer's events, read-only: ``len()`` counts a span as two
    events and builds nothing; iterating renders the Chrome event
    dicts."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._tracer._rows) // _WIDTH + self._tracer._spans

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        tracer = self._tracer
        series = tracer._series_ids
        event = tracer._event
        rows = iter(tracer._rows)
        for code, ts_ns, dur_or_end_ns, args in zip(rows, rows, rows, rows):
            yield event(code, ts_ns, dur_or_end_ns, args)
            if series[code][0] == "B":
                yield event(code, ts_ns, dur_or_end_ns, args, end=True)


class Tracer:
    """Records trace events in simulated nanoseconds.

    ``pid_base`` offsets every node id, giving each simulated cluster of
    a multi-run session a disjoint pid namespace; ``label`` prefixes the
    process names so runs stay tellable apart in the viewer.
    """

    def __init__(self, sim: "Simulator", budget: Optional[TraceBudget] = None,
                 pid_base: int = 0, label: str = ""):
        self.sim = sim
        self.budget = budget if budget is not None else TraceBudget()
        self.pid_base = pid_base
        self.label = label
        #: one row of _WIDTH int64 fields per record (module docstring).
        self._rows = array("q")
        #: how many records are spans (each is two events).
        self._spans = 0
        #: (ph, node_id, track, name, cat) -> series code, first-use order.
        self._series: Dict[tuple, int] = {}
        #: series code -> (ph, pid, tid, name, cat).
        self._series_ids: List[Tuple[str, int, int, str, str]] = []
        #: the dict ``args`` recorded, by the index their rows encode.
        self._arg_dicts: List[Dict[str, Any]] = []
        #: (node_id, track) -> (pid, tid); tids count up in first-use order.
        self._ids: Dict[Tuple[int, str], Tuple[int, int]] = {}
        self._pids: Dict[int, str] = {}

    @property
    def events(self) -> TraceEvents:
        """Every recorded event, in recording order (read-only)."""
        return TraceEvents(self)

    # -- identity ---------------------------------------------------------

    def name_process(self, node_id: int, name: str) -> None:
        """Pre-name a trace process before any event lands on it.

        Used for pseudo-nodes that are not cluster machines — switches
        get pid ``num_nodes + switch_index`` with their graph name, so
        trunk-port spans group under e.g. ``leaf0`` instead of a
        phantom ``node9``.  A name set here wins over the ``node{id}``
        auto-naming."""
        pid = self.pid_base + node_id
        self._pids[pid] = f"{self.label}/{name}" if self.label else name

    def _new_series(self, ph: str, node_id: int, track: str, name: str,
                    cat: str) -> int:
        """Intern a series, naming ``node_id``'s process and ``track``'s
        thread on their first use."""
        ids = self._ids.get((node_id, track))
        if ids is None:
            pid = self.pid_base + node_id
            if pid not in self._pids:
                self._pids[pid] = (f"{self.label}/node{node_id}"
                                   if self.label else f"node{node_id}")
            ids = self._ids[(node_id, track)] = (pid, len(self._ids) + 1)
        code = self._series[(ph, node_id, track, name, cat)] = len(
            self._series_ids)
        self._series_ids.append((ph, ids[0], ids[1], name, cat))
        return code

    def _arg(self, args: Any) -> int:
        """``args`` other than ``None`` or an int ``>= 0`` as its row
        field (module docstring); a negative byte count is kept as the
        dict it renders to."""
        if type(args) is not dict:
            count = int(args)
            if count >= 0:
                return count
            args = {"bytes": count}
        elif not args:
            return -1
        self._arg_dicts.append(args)
        return -1 - len(self._arg_dicts)

    # -- emission ---------------------------------------------------------

    def complete(self, node_id: int, track: str, name: str, start_ns: int,
                 dur_ns: int, cat: str = "", args: Any = None) -> None:
        """One ``X`` span with explicit start and duration."""
        code = self._series.get(("X", node_id, track, name, cat))
        if code is None:
            code = self._new_series("X", node_id, track, name, cat)
        if self.budget.take():
            if type(args) is not int or args < 0:
                args = -1 if args is None else self._arg(args)
            self._rows.frombytes(_row(code, start_ns, dur_ns, args))

    def span(self, node_id: int, track: str, name: str, start_ns: int,
             end_ns: int, cat: str = "", args: Any = None) -> None:
        """A ``B``/``E`` pair with both timestamps known up front.

        Budgeted atomically so a trace never ends on an unmatched begin.
        Only valid on tracks whose spans never nest or overlap (the FIFO
        RatePipes); interleaving operations must use :meth:`complete`.
        """
        if not self.budget.take(2):
            return
        code = self._series.get(("B", node_id, track, name, cat))
        if code is None:
            code = self._new_series("B", node_id, track, name, cat)
        self._spans += 1
        if type(args) is not int or args < 0:
            args = -1 if args is None else self._arg(args)
        self._rows.frombytes(_row(code, start_ns, end_ns, args))

    def instant(self, node_id: int, track: str, name: str,
                ts_ns: Optional[int] = None, cat: str = "",
                args: Any = None) -> None:
        code = self._series.get(("i", node_id, track, name, cat))
        if code is None:
            code = self._new_series("i", node_id, track, name, cat)
        ts = self.sim.now if ts_ns is None else ts_ns
        if self.budget.take():
            if type(args) is not int or args < 0:
                args = -1 if args is None else self._arg(args)
            self._rows.frombytes(_row(code, ts, 0, args))

    # -- reading ----------------------------------------------------------

    def _event(self, code: int, ts_ns: int, dur_or_end_ns: int, args: int,
               end: bool = False) -> Dict[str, Any]:
        """The Chrome dict of one row (of its ``E`` half when ``end``)."""
        ph, pid, tid, name, cat = self._series_ids[code]
        if end:
            return {"ph": "E", "pid": pid, "tid": tid, "name": name,
                    "cat": cat, "ts": dur_or_end_ns / 1000.0}
        event = {"ph": ph, "pid": pid, "tid": tid, "name": name, "cat": cat,
                 "ts": ts_ns / 1000.0}
        if ph == "X":
            event["dur"] = dur_or_end_ns / 1000.0
        elif ph == "i":
            event["s"] = "t"
        if args >= 0:
            event["args"] = {"bytes": args}
        elif args != -1:
            event["args"] = self._arg_dicts[-2 - args]
        return event

    # -- export -----------------------------------------------------------

    def _metadata_events(self) -> List[Dict[str, Any]]:
        meta: List[Dict[str, Any]] = []
        for pid, name in sorted(self._pids.items()):
            meta.append({"ph": "M", "pid": pid, "tid": 0, "ts": 0,
                         "name": "process_name", "args": {"name": name}})
        for pid, track, tid in sorted(
                (pid, track, tid)
                for (_node, track), (pid, tid) in self._ids.items()):
            meta.append({"ph": "M", "pid": pid, "tid": tid, "ts": 0,
                         "name": "thread_name", "args": {"name": track}})
        return meta

    def to_dict(self) -> Dict[str, Any]:
        return trace_document([self], self.budget.dropped)

    def export(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


def trace_document(tracers: Iterable[Tracer], dropped: int,
                   **other_data: Any) -> Dict[str, Any]:
    """One Chrome trace-event document over ``tracers``: every tracer's
    metadata events, then all their data events in non-decreasing ``ts``
    order (stable).  ``other_data`` joins the ``otherData`` section."""
    meta: List[Dict[str, Any]] = []
    data: List[Dict[str, Any]] = []
    for tracer in tracers:
        meta.extend(tracer._metadata_events())
        data.extend(tracer.events)
    data.sort(key=lambda e: e["ts"])
    return {
        "traceEvents": meta + data,
        "displayTimeUnit": "ns",
        "otherData": {
            "clock": "simulated nanoseconds (exported as microseconds)",
            **other_data,
            "dropped_events": dropped,
        },
    }
